package repl

import "repro/internal/wire"

// Wire shapes for the replication plane. A ship (proto.KindReplShip) is a
// Msg, and its Ack travels as the RPC reply. A seal (proto.KindReplSeal) is a
// Msg with only Primary set, answered by a SealReply.
//
// Every shape encodes with AppendTo, onto a buffer the caller brings, and
// decodes without allocating: an Ack is a value, and a decoded Msg or
// SealReply points into the bytes it was decoded from and lives as long as
// they do (DESIGN.md §12, "Who owns a shipped payload").

// Msg is one shipped batch: either a framed record batch starting at Base,
// or — when the follower needs a rebase — a full snapshot covering the log
// through SnapLSN.
type Msg struct {
	// Primary is the shipping server's id (which replica to ingest into).
	Primary int32
	// Base is the LSN of the first record in Recs (unused for snapshots).
	Base uint64
	// Recs is the framed record batch (wal.Log.LastFrames). Nil when the
	// message carries a snapshot instead.
	Recs []byte
	// SnapLSN is the log horizon covered by Snap.
	SnapLSN uint64
	// Snap is a rebase snapshot (wal.Checkpoint.Marshal), shipped when the
	// follower reported a gap, a sealed replica, or has no replica yet.
	Snap []byte
}

// Ack reports a follower's ingest horizon back to the primary.
type Ack struct {
	// Server is the follower's server id.
	Server int32
	// Primary identifies which replica the ack is about.
	Primary int32
	// Durable is the highest LSN the follower has applied contiguously.
	Durable uint64
	// NeedSync asks the primary to ship a rebase snapshot: the follower
	// got a batch from beyond its horizon or one it could not decode, holds
	// a sealed replica, or has no replica for this primary at all.
	NeedSync bool
}

// SealReply answers a seal: the replica's horizon and its state as a
// checkpoint, ready to install into the promoted server.
type SealReply struct {
	// Durable is the sealed replica's applied horizon (0: no replica).
	Durable uint64
	// Snap is the replica snapshot (wal.Checkpoint.Marshal); nil when the
	// follower has no replica for the requested primary.
	Snap []byte
}

// SizeHint returns the length of the message's wire form, so that a buffer of
// that capacity is never outgrown by AppendTo.
func (m *Msg) SizeHint() int { return 4 + 8 + 4 + len(m.Recs) + 8 + 4 + len(m.Snap) }

// AppendTo encodes the message onto buf and returns the extended slice.
func (m *Msg) AppendTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, m.Primary)
	buf = wire.AppendU64(buf, m.Base)
	buf = wire.AppendBlob(buf, m.Recs)
	buf = wire.AppendU64(buf, m.SnapLSN)
	return wire.AppendBlob(buf, m.Snap)
}

// UnmarshalMsgInto decodes a shipped batch into m. Recs and Snap are
// subslices of b, nil when empty.
func UnmarshalMsgInto(m *Msg, b []byte) error {
	d := wire.NewDecoder(b)
	d.Lend = true
	*m = Msg{Primary: d.I32(), Base: d.U64(), Recs: d.Blob(), SnapLSN: d.U64(), Snap: d.Blob()}
	return d.Finish("repl: decoding msg")
}

// AppendTo encodes the ack onto buf and returns the extended slice.
func (a Ack) AppendTo(buf []byte) []byte {
	buf = wire.AppendI32(buf, a.Server)
	buf = wire.AppendI32(buf, a.Primary)
	buf = wire.AppendU64(buf, a.Durable)
	return wire.AppendBool(buf, a.NeedSync)
}

// UnmarshalAck decodes an ack.
func UnmarshalAck(b []byte) (Ack, error) {
	d := wire.NewDecoder(b)
	a := Ack{Server: d.I32(), Primary: d.I32(), Durable: d.U64(), NeedSync: d.Bool()}
	if err := d.Finish("repl: decoding ack"); err != nil {
		return Ack{}, err
	}
	return a, nil
}

// AppendTo encodes the seal reply onto buf and returns the extended slice.
func (r *SealReply) AppendTo(buf []byte) []byte {
	return wire.AppendBlob(wire.AppendU64(buf, r.Durable), r.Snap)
}

// UnmarshalSealReplyInto decodes a seal reply into r. Snap is a subslice of
// b, nil when empty.
func UnmarshalSealReplyInto(r *SealReply, b []byte) error {
	d := wire.NewDecoder(b)
	d.Lend = true
	*r = SealReply{Durable: d.U64(), Snap: d.Blob()}
	return d.Finish("repl: decoding seal reply")
}
