package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestEmitterNamespacing(t *testing.T) {
	seen := make(map[uint64]bool)
	emitters := []Emitter{
		ClientEmitter(0),
		ClientEmitter(1),
		ServerEmitter(0, 0),
		ServerEmitter(0, 1), // same server, post-crash incarnation
		ServerEmitter(1, 0),
	}
	for k := range emitters {
		e := &emitters[k]
		for i := 0; i < 1000; i++ {
			id := e.Next()
			if seen[id] {
				t.Fatalf("duplicate span ID %#x", id)
			}
			seen[id] = true
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{})
	if tr.Spans() != nil || tr.Sample() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer should be empty")
	}
	if tr.OpQuantiles() != nil || tr.OpNames() != nil {
		t.Fatal("nil tracer quantiles should be nil")
	}
	tr.Reset()
	if New(Config{}) != nil {
		t.Fatal("disabled config should yield nil tracer")
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(Config{Sample: 1, Ring: 4})
	for i := 0; i < 10; i++ {
		tr.Record(Span{ID: uint64(i + 1), Idx: int32(i)})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Idx != int32(6+i) {
			t.Fatalf("span %d has idx %d, want %d (oldest-first last-N)", i, s.Idx, 6+i)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestHistogramAggregation(t *testing.T) {
	tr := New(Config{Sample: 1})
	tr.Record(Span{Kind: KindRoot, Name: "open", Start: 0, End: 100})
	tr.Record(Span{Kind: KindRoot, Name: "open", Start: 0, End: 200})
	tr.Record(Span{Kind: KindRoot, Name: "close", Start: 0, End: 50})
	tr.Record(Span{Kind: KindService, Where: ^int32(3), Start: 10, End: 30})
	tr.Record(Span{Kind: KindQueue, Where: ^int32(3), Start: 0, End: 10})
	ops := tr.OpQuantiles()
	if ops["open"].N != 2 || ops["close"].N != 1 {
		t.Fatalf("op quantiles: %+v", ops)
	}
	svc, q := tr.ServerQuantiles()
	if svc[3].N != 1 || q[3].N != 1 {
		t.Fatalf("server quantiles: svc=%+v q=%+v", svc, q)
	}
	names := tr.OpNames()
	if len(names) != 2 || names[0] != "close" || names[1] != "open" {
		t.Fatalf("op names: %v", names)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || len(tr.OpQuantiles()) != 0 {
		t.Fatal("reset did not clear")
	}
}

// sampleTree builds a realistic two-root forest with nested spans.
func sampleTree() []Span {
	return []Span{
		{Trace: 1, ID: 1, Kind: KindRoot, Name: "close", Where: 0, Start: 0, End: 1000},
		{Trace: 1, ID: 2, Parent: 1, Kind: KindRPC, Name: "close", Where: 0, Start: 10, End: 900},
		{Trace: 1, ID: 100, Parent: 2, Kind: KindNetReq, Name: "close", Where: ^int32(0), Start: 10, End: 60},
		{Trace: 1, ID: 101, Parent: 2, Kind: KindQueue, Name: "close", Where: ^int32(0), Start: 60, End: 200},
		{Trace: 1, ID: 102, Parent: 2, Kind: KindService, Name: "close", Where: ^int32(0), Start: 200, End: 700},
		{Trace: 1, ID: 103, Parent: 102, Kind: KindSub, Name: "close", Where: ^int32(0), Idx: 0, Start: 200, End: 400},
		{Trace: 1, ID: 104, Parent: 102, Kind: KindSub, Name: "unlink", Where: ^int32(0), Idx: 1, Start: 400, End: 700},
		{Trace: 1, ID: 105, Parent: 2, Kind: KindWAL, Name: "close", Where: ^int32(0), Start: 700, End: 890},
		{Trace: 2, ID: 3, Kind: KindRoot, Name: "read", Where: 1, Start: 500, End: 800},
	}
}

// permuteSpans returns the tree with shuffled order, shifted times, and
// remapped IDs — everything the canonical encoding must be blind to.
func permuteSpans(spans []Span, seed int64) []Span {
	rng := rand.New(rand.NewSource(seed))
	idMap := make(map[uint64]uint64)
	idMap[0] = 0
	for _, s := range spans {
		idMap[s.ID] = s.ID*7919 + uint64(seed)
	}
	out := append([]Span(nil), spans...)
	shift := sim.Cycles(rng.Intn(10000))
	for i := range out {
		out[i].ID = idMap[out[i].ID]
		out[i].Parent = idMap[out[i].Parent]
		out[i].Start += shift
		out[i].End += shift
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestCanonicalInvariance(t *testing.T) {
	base := EncodeCanonical(sampleTree())
	for seed := int64(1); seed <= 5; seed++ {
		got := EncodeCanonical(permuteSpans(sampleTree(), seed))
		if !bytes.Equal(base, got) {
			t.Fatalf("canonical encoding differs under permutation seed %d", seed)
		}
	}
	// A structural change must change the bytes.
	changed := sampleTree()
	changed[6].Idx = 2
	if bytes.Equal(base, EncodeCanonical(changed)) {
		t.Fatal("structural change did not change canonical bytes")
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	enc := EncodeCanonical(sampleTree())
	roots, err := DecodeCanonical(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("decoded %d roots, want 2", len(roots))
	}
	// Find the close root and check its nesting.
	var closeRoot *CanonNode
	for _, r := range roots {
		if r.Name == "close" && r.Kind == KindRoot {
			closeRoot = r
		}
	}
	if closeRoot == nil || len(closeRoot.Children) != 1 {
		t.Fatalf("close root malformed: %+v", closeRoot)
	}
	rpc := closeRoot.Children[0]
	if rpc.Kind != KindRPC || len(rpc.Children) != 4 {
		t.Fatalf("rpc span malformed: kind=%v children=%d", rpc.Kind, len(rpc.Children))
	}
	var svc *CanonNode
	for _, c := range rpc.Children {
		if c.Kind == KindService {
			svc = c
		}
	}
	if svc == nil || len(svc.Children) != 2 {
		t.Fatalf("service span should hold 2 sub spans: %+v", svc)
	}
	if _, err := DecodeCanonical([]byte("garbage")); err == nil {
		t.Fatal("garbage should not decode")
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleTree()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Span   string `json:"span"`
				Parent string `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(sampleTree()) {
		t.Fatalf("exported %d events, want %d", len(doc.TraceEvents), len(sampleTree()))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid == 0 || ev.Tid == 0 {
			t.Fatalf("malformed event: %+v", ev)
		}
	}
}
