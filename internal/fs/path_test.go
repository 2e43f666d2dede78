package fs

import (
	"slices"
	"strings"
	"testing"
)

// TestSplitPath checks how cleanPath splits a path into checked
// components: the root cleans to none, and a bad component is refused.
func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		err  bool
	}{
		{"/", nil, false},
		{"", nil, false},
		{"/a", []string{"a"}, false},
		{"/a/b/c", []string{"a", "b", "c"}, false},
		{"a/b", []string{"a", "b"}, false},
		{"/a//b", nil, true},
		{"/a/./b", nil, true},
		{"/a/../b", nil, true},
	}
	for _, c := range cases {
		path, err := cleanPath(c.in)
		if c.err != (err != nil) {
			t.Errorf("cleanPath(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err != nil {
			continue
		}
		var got []string
		if path != "" {
			got = strings.Split(path, "/")
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("cleanPath(%q) = %q, want components %v", c.in, path, c.want)
		}
	}
}

func TestCheckName(t *testing.T) {
	bad := []string{"", ".", "..", "a/b", "nul\x00", strings.Repeat("x", MaxNameLen+1)}
	for _, n := range bad {
		if CheckName(n) == nil {
			t.Errorf("CheckName(%q) accepted", n)
		}
	}
	if CheckName("ok-name_1.txt") != nil {
		t.Error("valid name rejected")
	}
}

func TestDirBase(t *testing.T) {
	cases := []struct {
		in, dir, base string
		err           bool
	}{
		{"/a/b/c", "/a/b", "c", false},
		{"/top", "/", "top", false},
		{"a/b", "/a", "b", false},
		{"/a/b/", "/a", "b", false},
		{"/", "", "", true},
		{"", "", "", true},
		{"/a//b", "", "", true},
		{"/a/./b", "", "", true},
		{"/a/../b", "", "", true},
		{"/a/" + strings.Repeat("x", MaxNameLen+1) + "/b", "", "", true},
	}
	for _, c := range cases {
		dir, base, err := DirBase(c.in)
		if c.err != (err != nil) || dir != c.dir || base != c.base {
			t.Errorf("DirBase(%q) = (%q, %q, %v), want (%q, %q, err=%v)", c.in, dir, base, err, c.dir, c.base, c.err)
		}
	}
}
