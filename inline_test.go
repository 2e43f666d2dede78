package flashwear_bench

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fastPaths are the steps every simulated request takes (device → FTL →
// NAND, and the clock under them) whose common case is small enough to
// inline, with the rare case in a helper of its own. Each entry is a
// package and a message the compiler's -m output for it must contain: a
// fast path that grows past the inlining budget, or a caller that stops
// inlining it, costs a call per request and moves no test.
var fastPaths = []struct{ pkg, msg string }{
	{"internal/simclock", "can inline (*Clock).Advance"},
	{"internal/device", "inlining call to simclock.(*Clock).Advance"},
	{"internal/nand", "can inline (*Chip).atWear"},
	{"internal/nand", "can inline payloadLen"},
	{"internal/nand", "can inline (*Chip).pageBuf"},
	{"internal/ftl", "can inline (*gcPool).maybeStaticWL"},
}

// diagLine is one compiler diagnostic: file:line:col: message.
var diagLine = regexp.MustCompile(`^(\S+?):\d+:\d+: (.*)$`)

// TestFastPathsInline builds the per-request packages with -gcflags=-m
// and fails, naming each, on a fast path the compiler no longer inlines.
func TestFastPathsInline(t *testing.T) {
	pkgs := map[string]bool{}
	for _, fp := range fastPaths {
		pkgs["./"+fp.pkg] = true
	}
	args := []string{"build", "-gcflags=-m"}
	for p := range pkgs {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	seen := map[[2]string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if m := diagLine.FindStringSubmatch(line); m != nil {
			seen[[2]string{filepath.ToSlash(filepath.Dir(m[1])), m[2]}] = true
		}
	}
	for _, fp := range fastPaths {
		if !seen[[2]string{fp.pkg, fp.msg}] {
			t.Errorf("%s: the compiler no longer reports %q; run go build -gcflags=-m=2 ./%s for the cost",
				fp.pkg, fp.msg, fp.pkg)
		}
	}
}
