// Package checktest is an analysistest-style harness for the flashvet
// suite: it loads a fixture package from testdata, runs analyzers over it,
// and compares findings against `// want` expectations in the fixture
// source.
//
// An expectation is a trailing comment of the form
//
//	x := time.Now() // want `wall-clock time\.Now`
//
// holding one or more regexes (backquoted or double-quoted, taken
// verbatim) that must each match a distinct finding on that line; findings
// on lines with no matching expectation fail the test, as do expectations
// nothing matched. Framework findings about the //flashvet:ignore
// directives themselves participate like any other finding.
package checktest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"flashwear/internal/analysis"
)

var wantRE = regexp.MustCompile("// want (.*)$")
var argRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads the package(s) matching pattern (relative to the test's
// working directory) and checks the analyzers' findings against the
// fixture's want comments.
func Run(t *testing.T, pattern string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkgs, fset, err := analysis.Load(".", pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("checktest: no packages match %q", pattern)
	}
	findings, err := analysis.Run(fset, pkgs, analyzers, nil)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	type expectation struct {
		re      *regexp.Regexp
		matched bool
	}
	expects := make(map[key][]*expectation)
	for _, pkg := range pkgs {
		for file, src := range pkg.Sources {
			for i, line := range strings.Split(string(src), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				k := key{file, i + 1}
				args := argRE.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: want comment holds no quoted regex", file, i+1)
				}
				for _, arg := range args {
					pat := arg[1]
					if pat == "" {
						pat = arg[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", file, i+1, pat, err)
					}
					expects[k] = append(expects[k], &expectation{re: re})
				}
			}
		}
	}

	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		msg := fmt.Sprintf("%s: %s", f.Analyzer, f.Message)
		matched := false
		for _, e := range expects[k] {
			if !e.matched && e.re.MatchString(msg) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", f.Pos, msg)
		}
	}
	for k, es := range expects {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s:%d: no finding matched %q", k.file, k.line, e.re)
			}
		}
	}
}
