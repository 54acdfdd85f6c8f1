package table

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// nameSet is a table whose keys live in a Names slab, the way a directory
// shard's entries do.
type nameSet struct {
	m     *Map[string, int]
	names Names
}

func newNameSet() *nameSet {
	return &nameSet{m: New[string, int](HashString, 0)}
}

// add stores name under a key kept in the slab and returns the key.
func (s *nameSet) add(name string, v int) string {
	k := s.names.Keep(name)
	s.m.Put(k, v)
	return k
}

func (s *nameSet) remove(name string) {
	if s.m.Delete(name) {
		s.names.Drop(name, s.rekey)
	}
}

func (s *nameSet) rekey(keep func(string) string) { s.m.Rekey(keep) }

// order returns the keys in Range order.
func (s *nameSet) order() []string {
	var ks []string
	s.m.Range(func(k string, _ int) bool {
		ks = append(ks, k)
		return true
	})
	return ks
}

func liveBytes(names []string) int {
	n := 0
	for _, k := range names {
		n += len(k)
	}
	return n
}

// TestNamesBound keeps 10 000 names and drops all but every 100th: the slab
// then holds at most twice the live bytes plus one chunk, and every name
// still stored is found under a string of its own.
func TestNamesBound(t *testing.T) {
	s := newNameSet()
	const n = 10000
	name := func(i int) string { return fmt.Sprintf("msg-%06d-0123456789abcdef", i) }
	for i := 0; i < n; i++ {
		s.add(name(i), i)
	}
	for i := 0; i < n; i++ {
		if i%100 != 0 {
			s.remove(name(i))
		}
	}
	live := liveBytes(s.order())
	if s.names.live != live {
		t.Fatalf("the slab counts %d live bytes, the table stores %d", s.names.live, live)
	}
	if s.names.held > 2*live+maxChunk {
		t.Fatalf("the slab holds %d bytes for %d live, want at most %d", s.names.held, live, 2*live+maxChunk)
	}
	for i := 0; i < n; i += 100 {
		if v, ok := s.m.Get(name(i)); !ok || v != i {
			t.Fatalf("%s: got %d, %v", name(i), v, ok)
		}
	}
	if s.m.Len() != n/100 {
		t.Fatalf("%d names stored, want %d", s.m.Len(), n/100)
	}
}

// TestNamesNeverRewritten takes views of every name, then drops enough to
// compact, more than once: the views taken before still read what they were
// kept as, and a compaction leaves the table's walk in the order it found it.
func TestNamesNeverRewritten(t *testing.T) {
	s := newNameSet()
	var views, want []string
	for i := 0; i < 2000; i++ {
		w := fmt.Sprintf("%d-%s", i, strings.Repeat("x", i%40))
		views = append(views, s.add(w, i))
		want = append(want, w)
	}
	compactions := 0
	for i := 0; i < 2000; i++ {
		if i%7 == 0 {
			continue
		}
		s.m.Delete(want[i])
		order, held := s.order(), s.names.held
		s.names.Drop(want[i], s.rekey)
		if s.names.held < held {
			compactions++
			if got := s.order(); !slices.Equal(got, order) {
				t.Fatalf("the walk after compaction is\n%q\nwant\n%q", got, order)
			}
		}
	}
	if compactions < 2 {
		t.Fatalf("%d compactions, want at least 2", compactions)
	}
	for i := range views {
		if views[i] != want[i] {
			t.Fatalf("view %d reads %q, was kept as %q", i, views[i], want[i])
		}
	}
}

// FuzzNames drives keeps and drops from the fuzzer's bytes against a model
// set: after every step the slab counts exactly the stored names' bytes,
// after every drop it holds at most 2 × live + one chunk, and at the end
// every stored name is found and every view ever taken reads what it was
// kept as.
func FuzzNames(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 1, 3, 5, 7})
	f.Add(bytes.Repeat([]byte{254, 255, 0, 1}, 64))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	// Names from four bytes to past a chunk, seven bits of them.
	var names [128]string
	for i := range names {
		names[i] = fmt.Sprintf("%03d%s", i, strings.Repeat("n", i*29%200))
	}
	names[127] = strings.Repeat("L", maxChunk+100)
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := newNameSet()
		model := map[string]bool{}
		type view struct{ got, want string }
		var views []view
		for _, op := range ops {
			w := names[op>>1]
			if op&1 == 0 {
				if !model[w] {
					views = append(views, view{s.add(w, len(w)), w})
					model[w] = true
				}
			} else {
				if model[w] {
					s.remove(w)
					delete(model, w)
					if s.names.held > 2*s.names.live+maxChunk {
						t.Fatalf("after dropping %.8q the slab holds %d bytes for %d live", w, s.names.held, s.names.live)
					}
				}
			}
			live := 0
			for k := range model {
				live += len(k)
			}
			if s.names.live != live {
				t.Fatalf("the slab counts %d live bytes, the model %d", s.names.live, live)
			}
		}
		if s.m.Len() != len(model) {
			t.Fatalf("%d names stored, the model has %d", s.m.Len(), len(model))
		}
		for k := range model {
			if v, ok := s.m.Get(strings.Clone(k)); !ok || v != len(k) {
				t.Fatalf("%.8q: got %d, %v", k, v, ok)
			}
		}
		for _, v := range views {
			if v.got != v.want {
				t.Fatalf("a view reads %.8q, was kept as %.8q", v.got, v.want)
			}
		}
	})
}
