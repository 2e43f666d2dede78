package flashwear_bench

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyList is the committed list of functions under internal/ that no
// binary links, one per line with the reason it stays: the symbol, then
// whitespace, then the reason. Lines starting with # are comments.
const testOnlyList = "test_only_api.txt"

// TestReachability builds every binary the repository ships — each main
// under cmd/ and examples/, scripts/benchab, and the bench module — with
// inlining off, collects the text symbols the linker kept, and lists the
// functions declared in non-test files under internal/ that none of them
// contains. The list must equal test_only_api.txt, so new API that only
// tests reach is a reviewed diff of that file, and a kept function that
// gets a caller (or goes away) is struck from it.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary in the repository")
	}
	const goCmd = "go" // go test puts its own toolchain first on PATH
	bin := t.TempDir()
	build := func(args ...string) {
		cmd := exec.Command(goCmd, args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	build("build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator),
		"./cmd/...", "./examples/...", "./scripts/benchab")
	build("-C", "bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	linked := map[string]bool{}
	ents, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		out, err := exec.Command(goCmd, "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				if name, ok := strings.CutPrefix(f[2], "flashwear/"); ok {
					linked[symbolName(name)] = true
				}
			}
		}
	}

	var got []string
	for _, fn := range internalFuncs(t) {
		if !linked[fn] {
			got = append(got, fn)
		}
	}
	want := readTestOnlyList(t)
	var missing, stale []string
	for _, fn := range got {
		if _, ok := want[fn]; !ok {
			missing = append(missing, fn)
		}
	}
	for fn := range want {
		if !slices.Contains(got, fn) {
			stale = append(stale, fn)
		}
	}
	slices.Sort(stale)
	if len(missing) > 0 {
		t.Errorf("functions no binary reaches, not in %s — delete them, or add each with its reason:\n%s",
			testOnlyList, strings.Join(missing, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("%s lists functions that a binary now reaches or that are gone — strike them:\n%s",
			testOnlyList, strings.Join(stale, "\n"))
	}
}

// symbolName maps a linker symbol to the form internalFuncs uses:
// type arguments dropped ("F[go.shape.int]" → "F") and pointer receivers
// bare ("pkg.(*T).M" → "pkg.T.M").
func symbolName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	if i := strings.Index(s, ".(*"); i >= 0 {
		if j := strings.Index(s[i:], ")"); j >= 0 {
			s = s[:i+1] + s[i+3:i+j] + s[i+j+1:]
		}
	}
	return s
}

// internalFuncs lists every function and method declared in a non-test
// file under internal/ (testdata excluded) as "internal/pkg.F" or
// "internal/pkg.T.M", sorted. init functions are left out: they have no
// callers to find.
func internalFuncs(t *testing.T) []string {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			out = append(out, pkg+"."+name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// recvName returns a receiver's type name without pointer or type
// parameters.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			panic(fmt.Sprintf("receiver type %T", x))
		}
	}
}

// readTestOnlyList parses test_only_api.txt into symbol → reason, failing
// on a line without a reason or a symbol listed twice.
func readTestOnlyList(t *testing.T) map[string]string {
	data, err := os.ReadFile(testOnlyList)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fn, reason := line, ""
		if j := strings.IndexAny(line, " \t"); j >= 0 {
			fn, reason = line[:j], strings.TrimSpace(line[j:])
		}
		if reason == "" {
			t.Errorf("%s:%d: %s has no reason", testOnlyList, i+1, fn)
		}
		if _, dup := want[fn]; dup {
			t.Errorf("%s:%d: %s listed twice", testOnlyList, i+1, fn)
		}
		want[fn] = reason
	}
	return want
}
