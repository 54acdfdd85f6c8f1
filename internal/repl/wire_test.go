package repl

import (
	"bytes"
	"reflect"
	"testing"
)

// TestWireRoundTrip encodes each replication shape behind a prefix (AppendTo
// extends what it is given) and decodes it back; a decoded Msg and SealReply
// point into the bytes they came from, and no prefix of an encoding decodes.
func TestWireRoundTrip(t *testing.T) {
	prefix := []byte("prefix")
	for _, m := range []Msg{
		{Primary: 3, AckTo: 17, Base: 42, Recs: []byte("framed records")},
		{Primary: 1, AckTo: 9, SnapLSN: 77, Snap: []byte("a checkpoint")},
		{Primary: 5},
	} {
		wire := m.AppendTo(bytes.Clone(prefix))[len(prefix):]
		var got Msg
		if err := UnmarshalMsgInto(&got, wire); err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("msg %+v decoded as %+v, err %v", m, got, err)
		}
		if len(got.Recs) > 0 && &got.Recs[0] != &wire[20] {
			t.Error("a decoded Msg copied its records")
		}
		for cut := 0; cut < len(wire); cut++ {
			if UnmarshalMsgInto(&got, wire[:cut]) == nil {
				t.Fatalf("msg %+v: %d of %d bytes decoded", m, cut, len(wire))
			}
		}
	}
	for _, a := range []Ack{{Server: 2, Primary: 1, Durable: 1 << 40, NeedSync: true}, {}} {
		wire := a.AppendTo(bytes.Clone(prefix))[len(prefix):]
		if got, err := UnmarshalAck(wire); err != nil || got != a || len(wire) != ackSize {
			t.Fatalf("ack %+v decoded as %+v from %d bytes, err %v", a, got, len(wire), err)
		}
		if _, err := UnmarshalAck(wire[:ackSize-1]); err == nil {
			t.Fatal("a truncated ack decoded")
		}
	}
	for _, r := range []SealReply{{Durable: 12, Snap: []byte("replica snapshot")}, {}} {
		wire := r.AppendTo(bytes.Clone(prefix))[len(prefix):]
		var got SealReply
		if err := UnmarshalSealReplyInto(&got, wire); err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("seal reply %+v decoded as %+v, err %v", r, got, err)
		}
		for cut := 0; cut < len(wire); cut++ {
			if UnmarshalSealReplyInto(&got, wire[:cut]) == nil {
				t.Fatalf("seal reply %+v: %d of %d bytes decoded", r, cut, len(wire))
			}
		}
	}
}
