// Slab allocation for the message hot path (DESIGN.md §13).
//
// Every endpoint owns a small free-list cache of payload buffers and
// future/reply-queue pairs. The hot path never touches the Go allocator in
// steady state: a client marshals a request into a buffer drawn from its
// endpoint cache, the server releases that buffer into *its* cache right
// after decoding (the request decoder copies what it decodes into a struct
// the server owns, so nothing decoded aliases the payload), marshals the
// response from its cache, and the client releases the response buffer
// after decoding. Buffers therefore migrate between caches at the same rate
// in both directions and the population is stable; where replies outgrow
// their requests, GetBuf serves a dry size class from a larger one, so the
// large buffers travel back with the requests.
//
// Ownership rules:
//   - A payload passed to Send/SendAsync/RPC is owned by the receiver of the
//     envelope once the call returns; the receiver releases it after
//     decoding. Envelopes own their payloads uniquely: fault-injected
//     duplicate delivery copies the payload for the extra envelope.
//   - A callback payload (directory invalidation) is drawn from the sender's
//     cache, one buffer per destination, and handed back to that cache by the
//     receiver (Network.ReleaseToSender): callbacks flow one way, so buffers
//     released into the receiver's cache would never come back. (The
//     replication plane answers a ship in the ship's own buffer instead,
//     because ships and acks differ in size class, DESIGN.md §12.)
//   - Reply queues and futures are recycled by Await after the reply is
//     harvested — except when a fault plan is installed, because a
//     duplicated request makes the server answer twice and the surplus
//     reply may land arbitrarily late; such queues are abandoned to the GC.
package msg

import "sync"

// bufClasses are the payload buffer size classes. Metadata requests and
// responses fit the small classes; data-carrying messages scale with the
// block size (64 KiB blocks plus headers fit 128 Ki).
var bufClasses = [...]int{64, 256, 1024, 4096, 16384, 65536, 131072, 524288}

// cacheCap bounds each per-class free list so a burst cannot pin unbounded
// memory; overflow is dropped to the GC.
const cacheCap = 64

// epCache is an endpoint's free-list cache. The mutex is effectively
// uncontended (an endpoint's sends and receives happen on its owner
// goroutine; the lock only guards rare cross-goroutine uses).
type epCache struct {
	mu   sync.Mutex
	bufs [len(bufClasses)][][]byte
	futs []*Future
}

// classFor returns the smallest class index that holds n bytes, or -1.
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetBuf returns a zero-length buffer with capacity at least n: the smallest
// cached one that holds n, so that a class that has run dry is served from a
// larger one. Where replies outgrow their requests (a directory listing),
// requesters collect large buffers and repliers small ones; a request sent
// in a large buffer carries it back to where the next reply needs it.
func (c *epCache) GetBuf(n int) []byte {
	i := classFor(n)
	if i < 0 {
		return make([]byte, 0, n)
	}
	c.mu.Lock()
	for j := i; j < len(bufClasses); j++ {
		if s := c.bufs[j]; len(s) > 0 {
			b := s[len(s)-1]
			s[len(s)-1] = nil
			c.bufs[j] = s[:len(s)-1]
			c.mu.Unlock()
			return b[:0]
		}
	}
	c.mu.Unlock()
	return make([]byte, 0, bufClasses[i])
}

// PutBuf releases a buffer the caller owns exclusively. Buffers are filed
// under the largest class that fits their capacity, so buffers grown past
// their original class still land in a usable list.
func (c *epCache) PutBuf(b []byte) {
	cp := cap(b)
	idx := -1
	for i, cl := range bufClasses {
		if cl <= cp {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	c.mu.Lock()
	if len(c.bufs[idx]) < cacheCap {
		c.bufs[idx] = append(c.bufs[idx], b[:0])
	}
	c.mu.Unlock()
}

// getFuture returns a recycled (or fresh) future whose queue is empty and
// open.
func (c *epCache) getFuture() *Future {
	c.mu.Lock()
	if s := c.futs; len(s) > 0 {
		f := s[len(s)-1]
		s[len(s)-1] = nil
		c.futs = s[:len(s)-1]
		c.mu.Unlock()
		return f
	}
	c.mu.Unlock()
	f := &Future{}
	f.q.init()
	f.q.items = f.slot[:0]
	return f
}

// putFuture recycles a harvested future. The caller guarantees no further
// replies can be pushed to its queue.
func (c *epCache) putFuture(f *Future) {
	f.q.recycle()
	f.src = nil
	c.mu.Lock()
	if len(c.futs) < cacheCap {
		c.futs = append(c.futs, f)
	}
	c.mu.Unlock()
}

// GetBuf returns a marshal buffer from the endpoint's cache. See the package
// comment for ownership rules.
func (ep *Endpoint) GetBuf(n int) []byte { return ep.cache.GetBuf(n) }

// PutBuf releases a payload buffer into the endpoint's cache. Call it only
// with buffers this endpoint owns: payloads of envelopes delivered to it
// (after decoding), or buffers obtained from GetBuf and never sent.
func (ep *Endpoint) PutBuf(b []byte) { ep.cache.PutBuf(b) }
