// Package trace provides virtual-time distributed tracing for the Hare
// reproduction. Every sampled client FS operation opens a root span whose
// trace/span IDs ride inside proto requests to the servers, which attach
// child spans for network delivery, queueing, service, batched sub-ops, and
// WAL commit. Spans carry virtual (sim.Cycles) timestamps, so a trace
// is a deterministic artifact of the simulation rather than of wall-clock
// scheduling: under a fixed fault schedule the structural span tree is
// byte-identical across runs (see EncodeCanonical).
//
// The collector is a bounded ring (compact, fixed memory) plus power-of-two
// latency histograms aggregated per op kind and per server, so tracing can
// stay on during soaks without unbounded growth.
package trace

import (
	"sort"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Kind classifies a span within the request path.
type Kind uint8

const (
	// KindRoot is a client FS operation (open, close, read, ...).
	KindRoot Kind = iota
	// KindRPC is one client request/reply exchange under a root.
	KindRPC
	// KindNetReq is the request's time on the wire (send → arrive),
	// including any fault-injected delay.
	KindNetReq
	// KindQueue is the time a request waited at a busy server.
	KindQueue
	// KindService is the server-side service time.
	KindService
	// KindSub is one sub-operation dispatched from a batch envelope.
	KindSub
	// KindWAL is the durability wait: service end → local flush end.
	KindWAL
	// KindWriteback is client-side dirty-line writeback during close/fsync.
	KindWriteback
	// KindEpochRefresh is one EEPOCH refresh-and-retry round trip.
	KindEpochRefresh
	// KindRepl is one replication ship (and, in sync mode, its ack wait),
	// overlapping the request's KindWAL span (DESIGN.md §12).
	KindRepl
	// KindFailover is a control-plane promotion: seal → publish → install.
	KindFailover
)

var kindNames = [...]string{
	KindRoot:         "root",
	KindRPC:          "rpc",
	KindNetReq:       "net",
	KindQueue:        "queue",
	KindService:      "service",
	KindSub:          "sub",
	KindWAL:          "wal",
	KindWriteback:    "writeback",
	KindEpochRefresh: "eepoch",
	KindRepl:         "repl",
	KindFailover:     "failover",
}

// String returns the span-kind label used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Span is one timed region of a traced request. Start/End are virtual
// times on the recording entity's clock. Idx disambiguates structurally
// identical siblings (sub-op index within a batch, retry number, flushed
// line count for writebacks).
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Kind   Kind
	Name   string
	Where  int32 // recording entity: client ID or ^serverID
	Start  sim.Cycles
	End    sim.Cycles
	Err    int32
	Idx    int32
}

// Config controls tracing for one deployment, in the spirit of
// core.Techniques: the zero value disables tracing entirely.
type Config struct {
	// Sample records 1-in-N root spans (1 = every op, 0 = off). Child
	// spans inherit the root's sampling decision via ID propagation, so
	// an unsampled op generates no spans anywhere in the stack.
	Sample int
	// Ring bounds the number of retained spans (default 1<<16). When the
	// ring wraps, the oldest spans are dropped; histograms keep counting.
	Ring int
}

// Enabled reports whether this configuration records anything.
func (c Config) Enabled() bool { return c.Sample > 0 }

// DefaultRing is the span-ring capacity when Config.Ring is zero.
const DefaultRing = 1 << 16

// Tracer is the shared span collector for one deployment. All methods are
// safe for concurrent use; a nil *Tracer is a valid, disabled tracer, so
// call sites can stay unconditional on the hot path.
type Tracer struct {
	cfg Config

	mu      sync.Mutex
	ring    []Span
	next    int
	wrapped bool
	dropped uint64
	opHist  map[string]*stats.Hist // root-span latency per op name
	srvOp   map[int]*stats.Hist    // service latency per server
	srvQ    map[int]*stats.Hist    // queue delay per server
}

// New builds a Tracer for cfg, or nil when cfg is disabled.
func New(cfg Config) *Tracer {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Ring <= 0 {
		cfg.Ring = DefaultRing
	}
	return &Tracer{
		cfg:    cfg,
		ring:   make([]Span, 0, cfg.Ring),
		opHist: make(map[string]*stats.Hist),
		srvOp:  make(map[int]*stats.Hist),
		srvQ:   make(map[int]*stats.Hist),
	}
}

// Sample returns the root-span sampling interval (0 when disabled).
func (t *Tracer) Sample() int {
	if t == nil {
		return 0
	}
	return t.cfg.Sample
}

// Record adds a completed span to the ring and updates the histograms.
// Safe on a nil Tracer (no-op).
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
		}
		t.wrapped = true
		t.dropped++
	}
	d := uint64(s.End - s.Start)
	switch s.Kind {
	case KindRoot:
		h := t.opHist[s.Name]
		if h == nil {
			h = &stats.Hist{}
			t.opHist[s.Name] = h
		}
		h.Record(d)
	case KindService:
		t.histFor(t.srvOp, s.Where).Record(d)
	case KindQueue:
		t.histFor(t.srvQ, s.Where).Record(d)
	}
}

func (t *Tracer) histFor(m map[int]*stats.Hist, where int32) *stats.Hist {
	srv := int(^where)
	h := m[srv]
	if h == nil {
		h = &stats.Hist{}
		m[srv] = h
	}
	return h
}

// Spans returns the retained spans, oldest first. Safe on nil (empty).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Dropped returns how many spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// OpQuantiles returns per-op-kind root latency summaries (op → quantiles).
func (t *Tracer) OpQuantiles() map[string]stats.Quantiles {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]stats.Quantiles, len(t.opHist))
	for op, h := range t.opHist {
		out[op] = h.Quantiles()
	}
	return out
}

// ServerQuantiles returns per-server service and queue latency summaries.
func (t *Tracer) ServerQuantiles() (service, queue map[int]stats.Quantiles) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	service = make(map[int]stats.Quantiles, len(t.srvOp))
	for srv, h := range t.srvOp {
		service[srv] = h.Quantiles()
	}
	queue = make(map[int]stats.Quantiles, len(t.srvQ))
	for srv, h := range t.srvQ {
		queue[srv] = h.Quantiles()
	}
	return service, queue
}

// OpNames returns the recorded op kinds, sorted.
func (t *Tracer) OpNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.opHist))
	for op := range t.opHist {
		names = append(names, op)
	}
	sort.Strings(names)
	return names
}

// Reset drops all retained spans and histograms (emitter IDs keep
// advancing, so spans recorded before and after a Reset never collide).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = t.ring[:0]
	t.next = 0
	t.wrapped = false
	t.dropped = 0
	t.opHist = make(map[string]*stats.Hist)
	t.srvOp = make(map[int]*stats.Hist)
	t.srvQ = make(map[int]*stats.Hist)
}

// Emitter allocates span IDs for one entity. IDs are namespaced by the
// entity and (for servers) an incarnation number, so IDs stay unique —
// without coordination — across clients, servers, and server crash/recover
// cycles, and they are deterministic because every entity is
// single-threaded in the simulation.
//
// Layout: bit 63 = server flag; bits 62..48 = entity ID; bits 47..40 =
// incarnation; bits 39..0 = per-emitter sequence.
type Emitter struct {
	base uint64
	seq  uint64 // owned by the entity's goroutine
}

// ClientEmitter returns the ID allocator for a client, held by value in the
// entity it numbers.
func ClientEmitter(clientID int32) Emitter {
	return Emitter{base: (uint64(uint32(clientID)) & 0x7fff) << 48}
}

// ServerEmitter returns the ID allocator for one incarnation of a server.
// Recovery after a crash must use a fresh incarnation so replayed or
// re-served requests never reuse a pre-crash span ID.
func ServerEmitter(serverID int, incarnation uint32) Emitter {
	return Emitter{base: 1<<63 |
		(uint64(serverID)&0x7fff)<<48 |
		(uint64(incarnation)&0xff)<<40}
}

// Next returns a fresh span ID. Not safe for concurrent use; an Emitter
// belongs to its entity's goroutine.
func (e *Emitter) Next() uint64 {
	e.seq++
	return e.base | (e.seq & (1<<40 - 1))
}
