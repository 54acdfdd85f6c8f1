package fsapi

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The Split/Join implementations the walker replaced, kept as the oracle: the
// walker must agree with them on every input, clean or not.

func oracleSplitPath(path string) []string {
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p == "" || p == "." {
			continue
		}
		out = append(out, p)
	}
	return out
}

func oracleJoin(elems ...string) string {
	joined := strings.Join(elems, "/")
	comps := oracleSplitPath(joined)
	if IsAbs(joined) {
		return "/" + strings.Join(comps, "/")
	}
	return strings.Join(comps, "/")
}

func oracleResolveDots(path string) string {
	comps := oracleSplitPath(path)
	out := make([]string, 0, len(comps))
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

func oracleSplitDirBase(path string) (dir, base string) {
	comps := oracleSplitPath(path)
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

// oracleAbsPath is what both clients' absPath did before AbsPath.
func oracleAbsPath(cwd, path string) string {
	if !IsAbs(path) {
		path = oracleJoin(cwd, path)
		if !IsAbs(path) {
			path = "/" + path
		}
	}
	return oracleResolveDots(path)
}

func walk(path string) []string {
	out := []string{}
	for comp, rest := NextComponent(path); comp != ""; comp, rest = NextComponent(rest) {
		out = append(out, comp)
	}
	return out
}

// checkAgainstOracle compares every path function with its oracle on one
// input, resolved against one working directory.
func checkAgainstOracle(t *testing.T, cwd, p string) {
	t.Helper()
	if got, want := walk(p), oracleSplitPath(p); !slices.Equal(got, want) {
		t.Errorf("walk(%q) = %q, want %q", p, got, want)
	}
	if got, want := SplitPath(p), oracleSplitPath(p); !slices.Equal(got, want) || got == nil {
		t.Errorf("SplitPath(%q) = %q, want %q (never nil)", p, got, want)
	}
	if got, want := ResolveDots(p), oracleResolveDots(p); got != want {
		t.Errorf("ResolveDots(%q) = %q, want %q", p, got, want)
	}
	gotDir, gotBase := SplitDirBase(p)
	if wantDir, wantBase := oracleSplitDirBase(p); gotDir != wantDir || gotBase != wantBase {
		t.Errorf("SplitDirBase(%q) = (%q, %q), want (%q, %q)", p, gotDir, gotBase, wantDir, wantBase)
	}
	if got, want := Join(cwd, p), oracleJoin(cwd, p); got != want {
		t.Errorf("Join(%q, %q) = %q, want %q", cwd, p, got, want)
	}
	abs := AbsPath(cwd, p)
	if want := oracleAbsPath(cwd, p); abs != want {
		t.Errorf("AbsPath(%q, %q) = %q, want %q", cwd, p, abs, want)
	}
	if !IsClean(abs) {
		t.Errorf("AbsPath(%q, %q) = %q is not clean", cwd, p, abs)
	}
	// A path is clean exactly when resolving it changes nothing.
	if got, want := IsClean(p), IsAbs(p) && oracleResolveDots(p) == p; got != want {
		t.Errorf("IsClean(%q) = %v, want %v", p, got, want)
	}
}

func TestWalkerAgainstOracleTable(t *testing.T) {
	long := strings.Repeat("n", NameMax)
	paths := []string{
		"//a/./b/../c/", "/..", "/a/..", "/a/../..", "/a/b/", "/a//b", "", ".", "./.", "..", "../..",
		"/", "//", "/.", "/./", "/a", "/a/b/c", "a", "a/b", "a/./b/", "./a", "../a", "a/..", "a/../../b",
		"/" + long, "/" + long + "/" + long, long + "/../" + long, "/a/" + long + "/", "/..a", "/a..", "/.../x", "/a/.b/..c",
	}
	for _, cwd := range []string{"/", "/w", "/w/d", "/w/../x/", "w"} {
		for _, p := range paths {
			checkAgainstOracle(t, cwd, p)
		}
	}
}

// TestWalkerAgainstOracleRandom builds paths from the pieces that matter —
// names, dots, double dots, empty components — and compares on each.
func TestWalkerAgainstOracleRandom(t *testing.T) {
	const seed = 18
	rng := rand.New(rand.NewSource(seed))
	pieces := []string{"a", "bb", "c.d", ".", "..", "", "...", ".x", "x.", strings.Repeat("m", NameMax)}
	randPath := func() string {
		var b strings.Builder
		if rng.Intn(3) > 0 {
			b.WriteByte('/')
		}
		for i, n := 0, rng.Intn(7); i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			if i < n-1 || rng.Intn(4) == 0 {
				b.WriteByte('/')
			}
		}
		return b.String()
	}
	for i := 0; i < 5000; i++ {
		cwd, p := randPath(), randPath()
		checkAgainstOracle(t, cwd, p)
		if t.Failed() {
			t.Fatalf("seed %d, iteration %d: cwd %q, path %q", seed, i, cwd, p)
		}
	}
}

// TestCleanPathAllocatesNothing: a clean absolute path is resolved, split and
// walked as substrings of itself.
func TestCleanPathAllocatesNothing(t *testing.T) {
	const p = "/churn/sub/t3-000042-0123456789abcdef"
	var sink int
	for name, f := range map[string]func(){
		"ResolveDots":  func() { sink += len(ResolveDots(p)) },
		"AbsPath":      func() { sink += len(AbsPath("/cwd", p)) },
		"SplitDirBase": func() { dir, base := SplitDirBase(p); sink += len(dir) + len(base) },
		"walk": func() {
			for comp, rest := NextComponent(p); comp != ""; comp, rest = NextComponent(rest) {
				sink += len(comp)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s of a clean path allocates %v times, want 0", name, allocs)
		}
	}
	if sink == 0 {
		t.Fatal("the measured functions returned nothing")
	}
}
