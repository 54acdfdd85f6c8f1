package server

// Who has an entry cached (§3.6.1, DESIGN.md §6).
//
// An entry's first tracker lives in the entry itself (dirEnt.tracker). An
// entry that a second client looks up starts a chain of runs in its shard's
// pool, the first run holding the first tracker: a slab in Bonwick's sense
// (USENIX Summer 1994), as table.Dense is for inodes and table.Names for
// names. A run freed by an invalidation goes on the pool's free list and
// serves the next chain, so lookups that keep re-caching the same entries
// allocate nothing once the pool has grown to what they need.

// trackRunSlots is how many clients one run holds: with the index of the
// next run, a run is 32 bytes.
const trackRunSlots = 7

// trackRun is one run of a chain: clients, as endpoint id plus one, in the
// order they were tracked (a 0 slot is free, and so is every slot after it), and the
// index plus one of the chain's next run (0: this is the last).
type trackRun struct {
	ids  [trackRunSlots]int32
	next int32
}

// trackPool is a directory shard's slab of runs. A chain is named by its
// first run, as a negative tracker value (-(index+1)); free runs are chained
// through next from free, an index plus one (0: none).
type trackPool struct {
	runs []trackRun
	free int32
}

// add records client as a tracker of the entry whose tracker value is *t,
// and reports whether *t changed. A pool first needed is sized for entries
// chains of one run each.
func (p *trackPool) add(t *int32, client int32, entries int) bool {
	id := client + 1
	switch {
	case *t == 0:
		*t = id
		return true
	case *t == id:
		return false
	case *t > 0:
		r := p.alloc(entries)
		p.runs[r].ids[0], p.runs[r].ids[1] = *t, id
		*t = -(r + 1)
		return true
	}
	r := -*t - 1
	for {
		run := &p.runs[r]
		for i, c := range run.ids {
			if c == id {
				return false
			}
			if c == 0 {
				run.ids[i] = id
				return false
			}
		}
		if run.next == 0 {
			break
		}
		r = run.next - 1
	}
	n := p.alloc(entries) // may move p.runs: index, do not point
	p.runs[n].ids[0] = id
	p.runs[r].next = n + 1
	return false
}

// alloc returns the index of a cleared run, from the free list or appended.
func (p *trackPool) alloc(entries int) int32 {
	if p.free != 0 {
		r := p.free - 1
		p.free = p.runs[r].next
		p.runs[r] = trackRun{}
		return r
	}
	if p.runs == nil {
		p.runs = make([]trackRun, 0, entries)
	}
	p.runs = append(p.runs, trackRun{})
	return int32(len(p.runs) - 1)
}

// release calls yield with each client of tracker value t, the first
// tracker first and the rest in the order they were tracked, and puts t's
// chain, if it has one, on the free list. yield must not use the pool.
func (p *trackPool) release(t int32, yield func(client int32)) {
	if t >= 0 {
		if t > 0 {
			yield(t - 1)
		}
		return
	}
	for r := -t - 1; ; {
		run := &p.runs[r]
		for _, c := range run.ids {
			if c == 0 {
				break
			}
			yield(c - 1)
		}
		next := run.next
		run.next = p.free
		p.free = r + 1
		if next == 0 {
			return
		}
		r = next - 1
	}
}
