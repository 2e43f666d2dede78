package flashwear_bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"flashwear/internal/experiments"
)

const (
	headlinesBegin = "<!-- headlines:begin -->"
	headlinesEnd   = "<!-- headlines:end -->"
)

// headlineBlock returns EXPERIMENTS.md's headline block as committed.
func headlineBlock(t *testing.T) string {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(doc), headlinesBegin)
	j := strings.Index(string(doc), headlinesEnd)
	if i < 0 || j < i {
		t.Fatal("EXPERIMENTS.md has no headline block")
	}
	return string(doc[i : j+len(headlinesEnd)])
}

// TestExperimentsHeadlines regenerates EXPERIMENTS.md's headline block —
// every exhibit's headline metrics at its pinned config — and requires the
// committed block to match byte for byte. The simulator is deterministic,
// so a mismatch is a behaviour change or a stale doc; the failure message
// carries the regenerated block, ready to paste.
func TestExperimentsHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every exhibit (~45 s)")
	}
	var sb strings.Builder
	sb.WriteString(headlinesBegin + "\n| exhibit | metric | value |\n|---|---|---|\n")
	for _, ex := range experiments.Exhibits {
		res, err := ex.Run(ex.Config)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range res.Headlines {
			fmt.Fprintf(&sb, "| %s (%v) | %s | %s |\n", ex.Name, ex.Config, h.Name, h.Digits())
		}
	}
	sb.WriteString(headlinesEnd)
	if got := sb.String(); got != headlineBlock(t) {
		t.Fatalf("EXPERIMENTS.md's headline block is stale; replace it with:\n%s", got)
	}
}

// TestExhibitsDocumented keeps the docs following the table: every exhibit
// has a row in DESIGN.md §3's index and rows in the headline block, so one
// cannot be added in one place only.
func TestExhibitsDocumented(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	index := string(design)
	index = index[strings.Index(index, "\n## 3. "):]
	index = index[:strings.Index(index, "\n## 4. ")]
	block := headlineBlock(t)
	for _, ex := range experiments.Exhibits {
		if !strings.Contains(index, "`flashsim exhibit "+ex.Name+"`") {
			t.Errorf("DESIGN.md §3 has no row for `flashsim exhibit %s`", ex.Name)
		}
		if !strings.Contains(block, "| "+ex.Name+" (") {
			t.Errorf("EXPERIMENTS.md's headline block has no row for %s", ex.Name)
		}
	}
}
