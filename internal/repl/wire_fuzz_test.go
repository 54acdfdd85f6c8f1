package repl

import (
	"bytes"
	"testing"
)

// ackSize is the wire size of an Ack.
const ackSize = 4 + 4 + 8 + 1

// FuzzReplWire: the replication plane's three decoders never panic on what
// arrives at its endpoint, and whatever decodes encodes back to the prefix of
// the input it was read from (a bool reads any non-zero byte as true and
// writes 1). A decoded Msg or SealReply points into the input, not at a copy.
func FuzzReplWire(f *testing.F) {
	f.Add((&Msg{Primary: 3, Base: 42, Recs: []byte("framed records")}).AppendTo(nil))
	f.Add((&Msg{Primary: 1, SnapLSN: 77, Snap: []byte("a checkpoint")}).AppendTo(nil))
	f.Add(Ack{Server: 2, Primary: 1, Durable: 1 << 40, NeedSync: true}.AppendTo(nil))
	f.Add((&SealReply{Durable: 12, Snap: []byte("replica snapshot")}).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		// at reports whether a decoded blob is the input's bytes at off.
		at := func(v []byte, off int) bool { return len(v) == 0 || &v[0] == &b[off] }
		var m Msg
		if UnmarshalMsgInto(&m, b) == nil {
			if enc := m.AppendTo(nil); !bytes.HasPrefix(b, enc) {
				t.Fatalf("msg %+v encodes as %x, decoded from %x", m, enc, b)
			}
			if !at(m.Recs, 16) || !at(m.Snap, 28+len(m.Recs)) {
				t.Fatal("a decoded Msg copied its records or its snapshot")
			}
		}
		if a, err := UnmarshalAck(b); err == nil {
			prefix := bytes.Clone(b[:ackSize])
			if prefix[ackSize-1] != 0 {
				prefix[ackSize-1] = 1
			}
			if enc := a.AppendTo(nil); !bytes.Equal(enc, prefix) {
				t.Fatalf("ack %+v encodes as %x, decoded from %x", a, enc, b)
			}
		}
		var r SealReply
		if UnmarshalSealReplyInto(&r, b) == nil {
			if enc := r.AppendTo(nil); !bytes.HasPrefix(b, enc) {
				t.Fatalf("seal reply %+v encodes as %x, decoded from %x", r, enc, b)
			}
			if !at(r.Snap, 12) {
				t.Fatal("a decoded SealReply copied its snapshot")
			}
		}
	})
}
