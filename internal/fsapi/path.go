package fsapi

import "strings"

// NextComponent returns the first component of path and what follows it,
// skipping slashes and "." components; comp is "" when none is left. Both
// results are substrings of path, so a walk
//
//	for comp, rest := NextComponent(p); comp != ""; comp, rest = NextComponent(rest)
//
// allocates nothing. ".." is a component like any other: callers that need
// it resolved use ResolveDots first.
func NextComponent(path string) (comp, rest string) {
	for {
		for len(path) > 0 && path[0] == '/' {
			path = path[1:]
		}
		if path == "" {
			return "", ""
		}
		if i := strings.IndexByte(path, '/'); i >= 0 {
			comp, path = path[:i], path[i:]
		} else {
			comp, path = path, ""
		}
		if comp != "." {
			return comp, path
		}
	}
}

// SplitPath splits a slash-separated path into its components, dropping empty
// components and single dots. It does not resolve "..": callers that need it
// use ResolveDots first. The returned slice is never nil.
func SplitPath(path string) []string {
	out := []string{}
	for comp, rest := NextComponent(path); comp != ""; comp, rest = NextComponent(rest) {
		out = append(out, comp)
	}
	return out
}

// IsAbs reports whether the path is absolute.
func IsAbs(path string) bool {
	return strings.HasPrefix(path, "/")
}

// IsClean reports whether path is what ResolveDots returns: absolute, with
// no empty, "." or ".." component and no trailing slash ("/" itself is
// clean). Every path function below returns substrings of a clean path
// instead of rebuilding it.
func IsClean(path string) bool {
	if !IsAbs(path) {
		return false
	}
	for i := 0; len(path) > 1 && i < len(path); {
		// path[i] is a slash; the component after it ends at j.
		j := i + 1
		for j < len(path) && path[j] != '/' {
			j++
		}
		switch path[i+1 : j] {
		case "", ".", "..":
			return false
		}
		i = j
	}
	return true
}

// Join joins path elements with slashes, collapsing duplicate separators.
func Join(elems ...string) string {
	joined := strings.Join(elems, "/")
	comps := SplitPath(joined)
	if IsAbs(joined) {
		return "/" + strings.Join(comps, "/")
	}
	return strings.Join(comps, "/")
}

// ResolveDots removes "." and resolves ".." components lexically against an
// absolute path. The input must be absolute; the output is absolute. A clean
// path is returned as it is.
func ResolveDots(path string) string {
	if IsClean(path) {
		return path
	}
	comps := SplitPath(path)
	out := comps[:0]
	for _, c := range comps {
		if c == ".." {
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
			continue
		}
		out = append(out, c)
	}
	return "/" + strings.Join(out, "/")
}

// AbsPath makes path absolute against the working directory cwd and resolves
// its dots; a clean absolute path is returned as it is.
func AbsPath(cwd, path string) string {
	if !IsAbs(path) {
		path = Join(cwd, path)
		if !IsAbs(path) {
			path = "/" + path
		}
	}
	return ResolveDots(path)
}

// SplitDirBase splits a path into its directory portion and final component.
// SplitDirBase("/a/b/c") returns ("/a/b", "c"); SplitDirBase("/a") returns
// ("/", "a"); SplitDirBase("/") returns ("/", "."). A clean path is cut at
// its last slash.
func SplitDirBase(path string) (dir, base string) {
	if path == "/" {
		return "/", "."
	}
	if IsClean(path) {
		i := strings.LastIndexByte(path, '/')
		return path[:max(i, 1)], path[i+1:]
	}
	comps := SplitPath(path)
	if len(comps) == 0 {
		return "/", "."
	}
	base = comps[len(comps)-1]
	prefix := comps[:len(comps)-1]
	if IsAbs(path) {
		return "/" + strings.Join(prefix, "/"), base
	}
	if len(prefix) == 0 {
		return ".", base
	}
	return strings.Join(prefix, "/"), base
}

// ValidName reports whether name is a legal directory entry name: non-empty,
// no slash, not "." or "..", and at most NameMax bytes.
func ValidName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	if len(name) > NameMax {
		return false
	}
	return !strings.Contains(name, "/")
}

// NameMax is the maximum length of a single path component.
const NameMax = 255
