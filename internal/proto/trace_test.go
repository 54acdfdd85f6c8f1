package proto

import (
	"bytes"
	"testing"
)

// TestTraceContextRoundTrip checks the optional trailing trace fields.
func TestTraceContextRoundTrip(t *testing.T) {
	req := &Request{Op: OpLookup, Dir: InodeID{Server: 1, Local: 2}, Name: "x",
		Trace: 0xdeadbeef, Span: 0x1234}
	got := &Request{}
	err := UnmarshalRequestInto(got, req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != req.Trace || got.Span != req.Span {
		t.Fatalf("trace ctx lost: got trace=%#x span=%#x", got.Trace, got.Span)
	}
}

// TestUntracedWireFormatUnchanged: a request with Trace == 0 must marshal
// byte-identically to the same request without trace fields, so tracing-off
// leaves message bytes (and the Bytes economy counter) untouched.
func TestUntracedWireFormatUnchanged(t *testing.T) {
	req := &Request{Op: OpCreateCoalesced, Dir: InodeID{Server: 0, Local: 1}, Name: "f"}
	plain := req.Marshal()
	traced := &Request{Op: OpCreateCoalesced, Dir: InodeID{Server: 0, Local: 1}, Name: "f",
		Trace: 7, Span: 9}
	withCtx := traced.Marshal()
	if len(withCtx) != len(plain)+16 {
		t.Fatalf("trace trailer should add exactly 16 bytes: %d vs %d", len(withCtx), len(plain))
	}
	if !bytes.Equal(withCtx[:len(plain)], plain) {
		t.Fatal("trace trailer changed the leading wire bytes")
	}
	got := &Request{}
	err := UnmarshalRequestInto(got, plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != 0 || got.Span != 0 {
		t.Fatalf("untraced request decoded with trace ctx: %#x/%#x", got.Trace, got.Span)
	}
}

// TestBatchSubOpTraceContext: sub-requests keep their trace context through
// the batch envelope.
func TestBatchSubOpTraceContext(t *testing.T) {
	subs := []*Request{
		{Op: OpLookup, Name: "a", Trace: 11, Span: 21},
		{Op: OpLookup, Name: "b"},
	}
	decoded, stop, err := UnmarshalBatch(MarshalBatch(subs, true))
	if err != nil {
		t.Fatal(err)
	}
	if !stop || len(decoded) != 2 {
		t.Fatalf("batch decode: stop=%v n=%d", stop, len(decoded))
	}
	if decoded[0].Trace != 11 || decoded[0].Span != 21 {
		t.Fatalf("sub-op 0 trace ctx lost: %+v", decoded[0])
	}
	if decoded[1].Trace != 0 || decoded[1].Span != 0 {
		t.Fatalf("sub-op 1 gained trace ctx: %+v", decoded[1])
	}
}
