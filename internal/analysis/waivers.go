package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// A Waiver is one suppression in force somewhere in the tree: a
// //flashvet:ignore directive or a package-level //flashvet:ops-domain
// declaration. The audit mode (flashvet -waivers) prints them all, so
// the set of places the linters are told to look away is itself a
// reviewable, diffable artifact — CI pins it to a committed baseline,
// and growing it takes a code-reviewed change to that file, not just a
// comment.
type Waiver struct {
	File string // as loaded; callers may relativize
	Line int
	Kind string // "ignore" or "ops-domain"
	// Detail is the directive's payload: "analyzer[,analyzer] — reason"
	// for ignores, the reason for ops-domain declarations, with
	// "MALFORMED:" prefixed when the directive would not parse.
	Detail string
}

func (w Waiver) String() string {
	return fmt.Sprintf("%s:%d: %s %s", w.File, w.Line, w.Kind, w.Detail)
}

// Waivers scans the loaded packages for every suppression directive,
// sorted by file then line.
func Waivers(fset *token.FileSet, pkgs []*Package) []Waiver {
	var out []Waiver
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := fset.Position(c.Pos())
					if text, ok := directiveText(c.Text, ignorePrefix); ok {
						names, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
						detail := names + " — " + strings.TrimSpace(reason)
						if names == "" || strings.TrimSpace(reason) == "" {
							detail = "MALFORMED: " + strings.TrimSpace(text)
						}
						out = append(out, Waiver{pos.Filename, pos.Line, "ignore", detail})
					} else if text, ok := directiveText(c.Text, OpsDomainPrefix); ok {
						detail := strings.TrimSpace(text)
						if detail == "" {
							detail = "MALFORMED: no reason"
						}
						out = append(out, Waiver{pos.Filename, pos.Line, "ops-domain", detail})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// directiveText returns the payload after //<prefix>, rejecting comments
// where the prefix is merely a prefix of a longer word, and trimming
// trailing commentary after an embedded "//" — the same grammar the
// directives themselves use.
func directiveText(comment, prefix string) (string, bool) {
	text, ok := strings.CutPrefix(comment, "//"+prefix)
	if !ok {
		return "", false
	}
	if i := strings.Index(text, "//"); i >= 0 {
		text = text[:i]
	}
	if text != "" && !strings.HasPrefix(text, " ") && !strings.HasPrefix(text, "\t") {
		return "", false
	}
	return text, true
}
