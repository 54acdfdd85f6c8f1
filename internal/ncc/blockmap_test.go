package ncc

import (
	"slices"
	"testing"
	"unsafe"
)

// TestBlockMapAllocs: a map of one run grows to 256 blocks, is cut to 100,
// and is freed, cut-off tail first, without allocating; it is no larger than
// the slice header it replaced.
func TestBlockMapAllocs(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if n := unsafe.Sizeof(BlockMap{}); n != 24 {
			t.Errorf("BlockMap is %d bytes, want 24", n)
		}
	}
	p := PartitionDRAM(NewDRAM(256, 64), 1)[0]
	var m BlockMap
	allocs := testing.AllocsPerRun(100, func() {
		for m.Len() < 256 {
			b, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			m.Append(b)
		}
		if m.At(255) != m.At(0)+255 {
			t.Fatalf("256 blocks off a fresh partition are not one run")
		}
		var tail BlockMap
		m.Cut(100, &tail)
		p.Free(&tail)
		p.Free(&m)
	})
	if allocs != 0 {
		t.Fatalf("growing, cutting and freeing a one-run map allocated %v times, want 0", allocs)
	}
	if p.FreeCount() != p.Total() {
		t.Fatalf("FreeCount = %d after freeing everything, want %d", p.FreeCount(), p.Total())
	}
}

// checkBlockMap fails unless m holds exactly the blocks of model, in order,
// as maximal non-empty runs.
func checkBlockMap(t *testing.T, m *BlockMap, model []BlockID) {
	t.Helper()
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(model))
	}
	for i, b := range model {
		if got := m.At(i); got != b {
			t.Fatalf("At(%d) = %d, want %d", i, got, b)
		}
	}
	var runs []Extent
	m.Runs(func(e Extent) bool {
		runs = append(runs, e)
		return true
	})
	for i, e := range runs {
		if e.Count == 0 {
			t.Fatalf("run %d of %+v is empty", i, runs)
		}
		if i > 0 && runs[i-1].End() == e.Start {
			t.Fatalf("runs %d and %d of %+v could be one", i-1, i, runs)
		}
	}
	flat := m.Flatten(nil)
	if len(flat) != len(model) {
		t.Fatalf("Flatten gives %d blocks, want %d", len(flat), len(model))
	}
	for i, b := range model {
		if flat[i] != uint64(b) {
			t.Fatalf("Flatten()[%d] = %d, want %d", i, flat[i], b)
		}
	}
}

// FuzzBlockMap drives a BlockMap with appends (contiguous, gapped and
// descending, one block or a run at a time), cuts, and frees through a
// Partition, against a flat []BlockID model: after every step the map holds
// the model's blocks in order as maximal runs, a range of it walks as the
// model's slice, a cut hands over exactly the model's tail, and a free hands
// the blocks back in map order.
func FuzzBlockMap(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 0, 0, 1, 3, 0, 0, 3, 2, 5, 0})
	f.Add([]byte{2, 1, 2, 1, 2, 1, 3, 1, 4, 9, 1, 0, 5, 0})
	f.Add([]byte{4, 40, 9, 7, 14, 3, 3, 0, 0, 1, 8, 2})
	const blocks = 1024
	dram := NewDRAM(blocks, 64)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := PartitionDRAM(dram, 1)[0]
		var m BlockMap
		var model []BlockID
		last := func() BlockID {
			if len(model) == 0 {
				return 0
			}
			return model[len(model)-1]
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 6 {
			case 0: // the block after the last
				b := (last() + 1) % blocks
				m.Append(b)
				model = append(model, b)
			case 1: // a gap
				b := (last() + 2 + BlockID(arg%8)) % blocks
				m.Append(b)
				model = append(model, b)
			case 2: // below the last
				b := (last() + blocks - 1 - BlockID(arg%8)) % blocks
				m.Append(b)
				model = append(model, b)
			case 3: // a run anywhere, empty ones included
				e := Extent{Start: BlockID(arg) * 3, Count: uint64(op/6) % 5}
				m.AppendRun(e)
				for j := uint64(0); j < e.Count; j++ {
					model = append(model, e.Start+BlockID(j))
				}
			case 4: // cut
				n := int(arg) % (len(model) + 1)
				var tail BlockMap
				m.Cut(n, &tail)
				checkBlockMap(t, &tail, model[n:])
				model = model[:n]
			case 5: // free, then allocate the blocks back off the top
				p.Free(&m)
				checkBlockMap(t, &m, nil)
				for j, want := range model {
					b, err := p.Alloc()
					if err != nil {
						t.Fatal(err)
					}
					if b != want {
						t.Fatalf("allocation %d after Free = %d, want %d (freed %v)", j, b, want, model)
					}
				}
				model = model[:0]
			}
			checkBlockMap(t, &m, model)
			from := int(arg) % (len(model) + 1)
			to := from + int(op)%(len(model)+2-from)
			var walked []BlockID
			m.RunsIn(from, to, func(e Extent) bool {
				for j := uint64(0); j < e.Count; j++ {
					walked = append(walked, e.Start+BlockID(j))
				}
				return true
			})
			if want := model[from:min(to, len(model))]; !slices.Equal(walked, want) {
				t.Fatalf("RunsIn(%d, %d) walks %v, want %v", from, to, walked, want)
			}
			if len(model) > 0 && !m.Contains(model[int(arg)%len(model)]) {
				t.Fatalf("Contains(%d) is false for a mapped block", model[int(arg)%len(model)])
			}
		}
	})
}
