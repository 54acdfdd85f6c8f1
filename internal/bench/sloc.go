package bench

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SLOCComponent maps a repository area to a display name, mirroring the
// component breakdown of the paper's Figure 4 (messaging, syscall
// interception, client library, file system server, scheduling), with a row
// of its own for each layer the paper's prototype did not have. Every
// package under internal/ belongs to exactly one component.
type SLOCComponent struct {
	Name  string
	Paths []string
}

// SLOCComponents returns the component map for this repository.
func SLOCComponents() []SLOCComponent {
	return []SLOCComponent{
		{"Messaging", []string{"internal/msg", "internal/proto", "internal/wire"}},
		{"Memory system (ncc)", []string{"internal/ncc", "internal/sim"}},
		{"Client library", []string{"internal/client", "internal/fsapi"}},
		{"File system server", []string{"internal/server"}},
		{"Scheduling", []string{"internal/sched"}},
		{"System assembly", []string{"internal/core", "hare.go", "doc.go"}},
		{"Baselines", []string{"internal/baseline"}},
		{"Durability: WAL (beyond paper)", []string{"internal/wal"}},
		{"Replication (beyond paper)", []string{"internal/repl"}},
		{"Elastic placement (beyond paper)", []string{"internal/place"}},
		{"Tables (beyond paper)", []string{"internal/table"}},
		{"Tracing (beyond paper)", []string{"internal/trace"}},
		{"Chaos & shadow oracle (beyond paper)", []string{"internal/chaos", "internal/shadow"}},
		{"Workloads & harness", []string{"internal/workload", "internal/bench", "internal/stats"}},
		{"Tools & examples", []string{"cmd", "examples"}},
	}
}

// CountSLOC counts non-blank, non-comment-only lines of Go source under the
// given paths (relative to root), excluding tests when includeTests is
// false.
func CountSLOC(root string, paths []string, includeTests bool) (int, error) {
	total := 0
	for _, p := range paths {
		full := filepath.Join(root, p)
		info, err := os.Stat(full)
		if err != nil {
			continue // optional components may not exist yet
		}
		if !info.IsDir() {
			n, err := countFile(full)
			if err != nil {
				return 0, err
			}
			total += n
			continue
		}
		err = filepath.Walk(full, func(path string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if fi.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			if !includeTests && strings.HasSuffix(path, "_test.go") {
				return nil
			}
			n, err := countFile(path)
			if err != nil {
				return err
			}
			total += n
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// countFile counts source lines in one file: blank lines and lines that are
// only a // comment are excluded.
func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		n++
	}
	return n, sc.Err()
}

// Figure4 regenerates the SLOC breakdown table (paper Figure 4) for this
// repository, rooted at root.
func Figure4(root string, includeTests bool) (*Table, error) {
	t := &Table{
		Title:   "Figure 4: SLOC breakdown by component",
		Columns: []string{"component", "approx. SLOC"},
		Note:    "Counts non-blank, non-comment Go lines; the paper's prototype was 13,575 lines of C/C++.",
	}
	comps := SLOCComponents()
	total := 0
	type row struct {
		name string
		n    int
	}
	var rows []row
	for _, c := range comps {
		n, err := CountSLOC(root, c.Paths, includeTests)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{c.Name, n})
		total += n
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	for _, r := range rows {
		t.AddRow(r.name, commas(r.n))
	}
	t.AddRow("Total", commas(total))
	return t, nil
}

// commas formats an integer with thousands separators.
func commas(n int) string {
	s := []byte{}
	str := []byte{}
	for i, v := 0, n; ; i++ {
		d := byte('0' + v%10)
		str = append([]byte{d}, str...)
		v /= 10
		if v == 0 {
			break
		}
		if (i+1)%3 == 0 {
			str = append([]byte{','}, str...)
		}
	}
	s = append(s, str...)
	return string(s)
}
