package sim

// timeHeap is an indexed binary min-heap keyed by virtual time. moved tells
// an element which slot it now occupies, so its owner can re-key or remove it
// in O(log n) without searching.
type timeHeap[T any] struct {
	ents  []timed[T]
	moved func(v T, slot int)
}

type timed[T any] struct {
	t Cycles
	v T
}

func (h *timeHeap[T]) len() int { return len(h.ents) }

func (h *timeHeap[T]) set(i int, e timed[T]) {
	h.ents[i] = e
	h.moved(e.v, i)
}

// up and down restore the heap order around slot i, whose entry may be out
// of place towards the root or towards the leaves respectively.
func (h *timeHeap[T]) up(i int) {
	e := h.ents[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.ents[parent].t <= e.t {
			break
		}
		h.set(i, h.ents[parent])
		i = parent
	}
	h.set(i, e)
}

func (h *timeHeap[T]) down(i int) {
	e, n := h.ents[i], len(h.ents)
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && h.ents[r].t < h.ents[least].t {
			least = r
		}
		if e.t <= h.ents[least].t {
			break
		}
		h.set(i, h.ents[least])
		i = least
	}
	h.set(i, e)
}

func (h *timeHeap[T]) push(t Cycles, v T) {
	h.ents = append(h.ents, timed[T]{t, v})
	h.up(len(h.ents) - 1)
}

// rekey changes the time of the entry in slot i.
func (h *timeHeap[T]) rekey(i int, t Cycles) {
	old := h.ents[i].t
	h.ents[i].t = t
	if t > old {
		h.down(i)
	} else {
		h.up(i)
	}
}

// remove deletes the entry in slot i; its owner forgets the slot itself.
func (h *timeHeap[T]) remove(i int) {
	last := len(h.ents) - 1
	gone, e := h.ents[i].t, h.ents[last]
	h.ents[last] = timed[T]{}
	h.ents = h.ents[:last]
	if i == last {
		return
	}
	h.ents[i] = e
	if e.t > gone {
		h.down(i)
	} else {
		h.up(i)
	}
}
