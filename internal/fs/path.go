package fs

import "strings"

// MaxNameLen is the longest permitted path component.
const MaxNameLen = 200

// CheckName validates a single path component.
func CheckName(name string) error {
	if name == "" || name == "." || name == ".." || len(name) > MaxNameLen ||
		strings.ContainsAny(name, "/\x00") {
		return ErrBadName
	}
	return nil
}

// cleanPath trims an absolute slash-separated path's outer slashes and
// checks each of its components; "/" and "" clean to "", the root.
func cleanPath(path string) (string, error) {
	path = strings.Trim(path, "/")
	for rest := path; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if err := CheckName(name); err != nil {
			return "", err
		}
	}
	return path, nil
}

// DirBase splits a path into its parent, normalised to "/a/b", and its
// final component. It returns ErrBadName for the root and for a
// component that CheckName rejects.
func DirBase(path string) (dir string, base string, err error) {
	path, err = cleanPath(path)
	if err != nil {
		return "", "", err
	}
	if path == "" {
		return "", "", ErrBadName
	}
	i := strings.LastIndexByte(path, '/')
	return "/" + path[:max(i, 0)], path[i+1:], nil
}
