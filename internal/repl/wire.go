package repl

import (
	"encoding/binary"
	"fmt"
)

// Wire shapes for the replication plane. REPL_APPEND carries a Msg in the
// request's Data; acks travel either as the RPC reply (sync mode) or as a
// one-way REPL_ACK request back to the primary's replication endpoint
// (async mode). REPL_SEAL carries a Msg with only Primary set and returns
// a SealReply.
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
	// AckTo is the endpoint id of the primary's replication plane, where
	// async acks are sent.
	AckTo int32
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
	// saw an LSN gap it could not buffer, holds a sealed replica, or has
	// no replica for this primary at all.
	NeedSync bool
}

// SealReply answers REPL_SEAL: the replica's horizon and its state as a
// checkpoint, ready to install into the promoted server.
type SealReply struct {
	// Durable is the sealed replica's applied horizon (0: no replica).
	Durable uint64
	// Snap is the replica snapshot (wal.Checkpoint.Marshal); nil when the
	// follower has no replica for the requested primary.
	Snap []byte
}

func appendBlob(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func takeBlob(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("repl: truncated blob length")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b)-4 < n {
		return nil, nil, fmt.Errorf("repl: truncated blob (want %d, have %d)", n, len(b)-4)
	}
	if n == 0 {
		return nil, b[4:], nil
	}
	return b[4 : 4+n : 4+n], b[4+n:], nil
}

// ackSize is the wire size of an Ack.
const ackSize = 4 + 4 + 8 + 1

// AppendTo encodes the message onto buf and returns the extended slice.
func (m *Msg) AppendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Primary))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.AckTo))
	buf = binary.LittleEndian.AppendUint64(buf, m.Base)
	buf = appendBlob(buf, m.Recs)
	buf = binary.LittleEndian.AppendUint64(buf, m.SnapLSN)
	buf = appendBlob(buf, m.Snap)
	return buf
}

// UnmarshalMsgInto decodes a shipped batch into m. Recs and Snap are
// subslices of b.
func UnmarshalMsgInto(m *Msg, b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("repl: truncated msg (%d bytes)", len(b))
	}
	*m = Msg{
		Primary: int32(binary.LittleEndian.Uint32(b)),
		AckTo:   int32(binary.LittleEndian.Uint32(b[4:])),
		Base:    binary.LittleEndian.Uint64(b[8:]),
	}
	var err error
	rest := b[16:]
	if m.Recs, rest, err = takeBlob(rest); err != nil {
		return err
	}
	if len(rest) < 8 {
		return fmt.Errorf("repl: truncated msg snap horizon")
	}
	m.SnapLSN = binary.LittleEndian.Uint64(rest)
	m.Snap, _, err = takeBlob(rest[8:])
	return err
}

// AppendTo encodes the ack onto buf and returns the extended slice.
func (a Ack) AppendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Server))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Primary))
	buf = binary.LittleEndian.AppendUint64(buf, a.Durable)
	if a.NeedSync {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// UnmarshalAck decodes an ack.
func UnmarshalAck(b []byte) (Ack, error) {
	if len(b) < ackSize {
		return Ack{}, fmt.Errorf("repl: truncated ack (%d bytes)", len(b))
	}
	return Ack{
		Server:   int32(binary.LittleEndian.Uint32(b)),
		Primary:  int32(binary.LittleEndian.Uint32(b[4:])),
		Durable:  binary.LittleEndian.Uint64(b[8:]),
		NeedSync: b[16] != 0,
	}, nil
}

// AppendTo encodes the seal reply onto buf and returns the extended slice.
func (r *SealReply) AppendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.Durable)
	return appendBlob(buf, r.Snap)
}

// UnmarshalSealReplyInto decodes a seal reply into r. Snap is a subslice of b.
func UnmarshalSealReplyInto(r *SealReply, b []byte) error {
	if len(b) < 12 {
		return fmt.Errorf("repl: truncated seal reply (%d bytes)", len(b))
	}
	var err error
	r.Durable = binary.LittleEndian.Uint64(b)
	r.Snap, _, err = takeBlob(b[8:])
	return err
}
