package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashwear/internal/analysis"
	"flashwear/internal/analysis/flashvet"
)

// A mutation breaks one invariant with one line of real-tree code. The
// mutated line ends in "// mutation:<name>", which is how the test finds
// it after every edit has shifted the file.
type mutation struct {
	name string
	pass string // the one analyzer that must report the tagged line
	file string // module-relative
	old  string // must occur exactly once in file
	new  string // replaces old and carries the tagged line
	imp  string // an import the mutated line needs, or ""
}

// mutations is the table DESIGN.md §10 records: each pass earns its place
// by catching one of these alone, in the code it exists to guard.
var mutations = []mutation{
	{
		name: "wallclock", pass: "wallclock", file: "internal/fleet/phone.go",
		old: "ph.runner.StepBytes = ph.stepBytes",
		new: "ph.runner.StepBytes = ph.stepBytes\n\t_ = time.Now() // mutation:wallclock",
	},
	{
		name: "globalrand", pass: "globalrand", file: "internal/nand/chip.go",
		old: "c.stats.Erases++",
		new: "c.stats.Erases++\n\t_ = rand.Intn(2) // mutation:globalrand",
	},
	{
		name: "opserrcheck", pass: "opserrcheck", file: "internal/ftl/pool.go",
		old: "_, err := p.chip.EraseBlock(b)",
		new: "_, _ = p.chip.EraseBlock(b); var err error // mutation:opserrcheck",
	},
	{
		name: "floataccum", pass: "floataccum", file: "internal/fleet/fleet.go",
		old: "g.BrickDayMilli += o.BrickDayMilli",
		new: "g.BrickDayMilli += o.BrickDayMilli\n\tvar f float64; f += float64(o.BrickDayMilli); _ = f // mutation:floataccum",
	},
	{
		name: "locksafe", pass: "locksafe", file: "internal/fleetd/campaign.go",
		old: "c.journal.Logger = l",
		new: "c.journal.Logger = l\n\t\tc.runDone <- struct{}{} // mutation:locksafe",
	},
	{
		name: "maporder", pass: "maporder", file: "internal/fleet/phone.go",
		old: "row[ColWearLevel] = int64(wearLevel)",
		new: "row[ColWearLevel] = int64(wearLevel)\n\tfor k := range map[int64]bool{1: true} { row = append(row, k) } // mutation:maporder",
	},
	{
		// A host value flowing into the alert scan's device count.
		name: "getenv", pass: "wallclock", file: "internal/fleetd/campaign.go", imp: "os",
		old: "devices := int64(c.spec.Devices)",
		new: `devices := int64(c.spec.Devices) + int64(len(os.Getenv("FLASHWEAR_DEVICES"))) // mutation:getenv`,
	},
	{
		name: "readdir", pass: "wallclock", file: "internal/fleetd/campaign.go",
		old: "dd := int64(len(es.Rows)) * devices",
		new: "if ents, err := c.mgr.fs.ReadDir(c.dir); err == nil { devices += int64(len(ents)) } // mutation:readdir\n\tdd := int64(len(es.Rows)) * devices",
	},
}

// TestEachPassCatchesARealMutation applies every mutation to a copy of the
// module and runs the full suite once: each tagged line must be reported
// by its pass and by no other, and nothing else may be reported. An
// anchor that no longer occurs exactly once fails the test, so the table
// cannot silently go stale.
func TestEachPassCatchesARealMutation(t *testing.T) {
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	copyModule(t, moduleRoot(t), dir)

	edited := map[string]string{}
	for _, m := range mutations {
		src, ok := edited[m.file]
		if !ok {
			data, err := os.ReadFile(filepath.Join(dir, m.file))
			if err != nil {
				t.Fatal(err)
			}
			src = string(data)
		}
		if n := strings.Count(src, m.old); n != 1 {
			t.Fatalf("mutation:%s: %q occurs %d times in %s, want once", m.name, m.old, n, m.file)
		}
		src = strings.Replace(src, m.old, m.new, 1)
		if m.imp != "" {
			src = strings.Replace(src, "import (\n", "import (\n\t\""+m.imp+"\"\n", 1)
		}
		edited[m.file] = src
	}
	type site struct {
		file string
		line int
	}
	tagged := map[site]string{}
	for file, src := range edited {
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(src, "\n") {
			if _, name, ok := strings.Cut(line, "// mutation:"); ok {
				tagged[site{path, i + 1}] = name
			}
		}
	}

	pkgs, fset, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(fset, pkgs, flashvet.All(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reportedBy := map[string][]string{}
	for _, f := range findings {
		name, ok := tagged[site{f.Pos.Filename, f.Pos.Line}]
		if !ok {
			t.Errorf("finding off the mutated lines: %s", f)
			continue
		}
		reportedBy[name] = append(reportedBy[name], f.Analyzer)
	}
	for _, m := range mutations {
		if len(reportedBy[m.name]) == 0 {
			t.Errorf("mutation:%s in %s: %s reported nothing", m.name, m.file, m.pass)
		}
		for _, a := range reportedBy[m.name] {
			if a != m.pass {
				t.Errorf("mutation:%s in %s: reported by %s, want %s alone", m.name, m.file, a, m.pass)
			}
		}
	}
}

// copyModule copies the module at root into dst, leaving out .git and the
// nested bench module, which ./... does not reach.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == ".git" || rel == "bench" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
