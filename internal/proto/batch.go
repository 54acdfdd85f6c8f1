package proto

import (
	"fmt"

	"repro/internal/fsapi"
)

// Generic op batching (DESIGN.md §7). A batch packs several sub-requests
// destined for one server into a single OP_BATCH message; the server answers
// with a single message carrying one response per sub-request, in order.
// Batching generalizes the paper's one-off message coalescing
// (OpCreateCoalesced, §3.6.3) into a first-class protocol facility: any
// client-side sequence of same-server operations can share one network
// round trip and one message-arrival overhead.
//
// A batch may be marked stop-on-error: sub-requests are then dependent, and
// once one fails the remaining ones are skipped with ECANCELED responses.
// A sub-request whose Target is PrevInode works on the inode its
// predecessor's response carries, so a chain like RM_MAP → UNLINK_INODE or
// LOOKUP → STAT needs no round trip to learn the inode in between.

const (
	// MaxBatchOps caps the number of sub-requests per batch message.
	MaxBatchOps = 16
	// MaxBatchBytes caps the marshaled size of a batch payload; callers
	// split larger sequences across several batch messages.
	MaxBatchBytes = 64 << 10
)

// Batchable reports whether an operation may appear inside a batch. The ops
// excluded either park on state other than rmdir marks (pipes), drive the
// rmdir protocol itself (which creates marks mid-request), or are
// control-plane operations with no business being coalesced. The server
// answers any other sub-request ENOSYS; a client asks before it wraps a
// request it would otherwise have sent bare.
func Batchable(op Op) bool {
	switch op {
	case OpLookup, OpAddMap, OpRmMap, OpReadDirShard,
		OpCreateCoalesced,
		OpMknod, OpLinkInode, OpUnlinkInode,
		OpOpenInode, OpCloseInode,
		OpGetBlocks, OpExtend, OpSetSize, OpTruncate,
		OpStat, OpReadAt, OpWriteAt,
		OpFdShare, OpFdIncRef, OpFdDecRef, OpFdUnshare,
		OpFdRead, OpFdWrite, OpFdSeek, OpFdGetInfo,
		OpPing:
		return true
	default:
		return false
	}
}

// ChainTarget resolves a PrevInode target against the responses before it:
// the inode the last of them carries, or false when there is none — no
// predecessor, one that failed, or one that names no inode (local inode
// numbers start at 1). The server applies it to a batch's sub-responses, the
// client to a chain it sends one request at a time.
func ChainTarget(prev []*Response) (InodeID, bool) {
	if len(prev) == 0 {
		return NilInode, false
	}
	last := prev[len(prev)-1]
	return last.Ino, last.Err == fsapi.OK && last.Ino.Local != 0
}

// batchFlagStopOnErr marks a dependent batch.
const batchFlagStopOnErr = 1 << 0

// A batch payload is the flags, the count, and every sub-message behind its
// length word. There is one encoder and one decoder for each direction: an
// envelope's AppendTo calls the encoder where its Data goes (Request.Subs,
// Response.Subs), so the sub-messages are written once, in the buffer that
// travels; the decoders take views of the received payload and decode them
// into structs the caller recycles.

func encodeBatch(e *encoder, reqs []*Request, stopOnErr bool) {
	var flags uint8
	if stopOnErr {
		flags |= batchFlagStopOnErr
	}
	e.u8(flags)
	e.u32(uint32(len(reqs)))
	for _, r := range reqs {
		mark := e.reserve32()
		r.encode(e)
		e.patch32(mark)
	}
}

func batchSizeHint(reqs []*Request) int {
	n := 5
	for _, r := range reqs {
		n += 4 + r.SizeHint()
	}
	return n
}

// MarshalBatch encodes sub-requests into an OpBatch payload.
func MarshalBatch(reqs []*Request, stopOnErr bool) []byte {
	e := encoder{buf: make([]byte, 0, batchSizeHint(reqs))}
	encodeBatch(&e, reqs, stopOnErr)
	return e.bytes()
}

// UnmarshalBatchInto decodes an OpBatch payload into subs, whose elements
// are reused as UnmarshalRequestInto reuses them (subs grows when the batch
// is larger), and returns the sub-requests and the stop-on-error flag,
// enforcing the batch size caps. The result does not alias b.
func UnmarshalBatchInto(subs []Request, b []byte) ([]Request, bool, error) {
	if len(b) > MaxBatchBytes {
		return nil, false, fmt.Errorf("proto: batch payload %d bytes exceeds cap %d", len(b), MaxBatchBytes)
	}
	d := newDecoder(b)
	flags := d.u8()
	n := int(d.u32())
	if d.err != nil {
		return nil, false, fmt.Errorf("proto: decoding batch header: %w", d.err)
	}
	if n <= 0 || n > MaxBatchOps {
		return nil, false, fmt.Errorf("proto: batch of %d sub-ops outside [1, %d]", n, MaxBatchOps)
	}
	subs = subs[:cap(subs)]
	if len(subs) < n {
		subs = append(subs, make([]Request, n-len(subs))...)
	}
	subs = subs[:n]
	for i := range subs {
		raw := d.view()
		if d.err != nil {
			return nil, false, fmt.Errorf("proto: decoding batch sub-op %d: %w", i, d.err)
		}
		if err := UnmarshalRequestInto(&subs[i], raw); err != nil {
			return nil, false, fmt.Errorf("proto: batch sub-op %d: %w", i, err)
		}
	}
	return subs, flags&batchFlagStopOnErr != 0, nil
}

// UnmarshalBatch is UnmarshalBatchInto with fresh sub-requests; for callers
// off the request path.
func UnmarshalBatch(b []byte) ([]*Request, bool, error) {
	subs, stop, err := UnmarshalBatchInto(nil, b)
	if err != nil {
		return nil, false, err
	}
	out := make([]*Request, len(subs))
	for i := range subs {
		out[i] = &subs[i]
	}
	return out, stop, nil
}

func encodeBatchResponses(e *encoder, resps []*Response) {
	e.u32(uint32(len(resps)))
	for _, r := range resps {
		mark := e.reserve32()
		r.encode(e)
		e.patch32(mark)
	}
}

func batchResponsesSizeHint(resps []*Response) int {
	n := 4
	for _, r := range resps {
		n += 4 + r.SizeHint()
	}
	return n
}

// MarshalBatchResponses encodes the per-sub-op responses of a batch.
func MarshalBatchResponses(resps []*Response) []byte {
	e := encoder{buf: make([]byte, 0, batchResponsesSizeHint(resps))}
	encodeBatchResponses(&e, resps)
	return e.bytes()
}

// batchResponseCount decodes the header of a batch reply's payload.
func batchResponseCount(d *decoder) (int, error) {
	n := int(d.u32())
	if d.err != nil {
		return 0, fmt.Errorf("proto: decoding batch response header: %w", d.err)
	}
	if n < 0 || n > MaxBatchOps {
		return 0, fmt.Errorf("proto: batch response of %d sub-ops outside [0, %d]", n, MaxBatchOps)
	}
	return n, nil
}

// UnmarshalBatchResponsesInto decodes a batch reply's payload into the given
// responses, reused as UnmarshalResponseInto reuses them; it is an error for
// the payload to hold any other number of them than len(resps), the number
// of sub-requests the caller sent. The results do not alias b.
func UnmarshalBatchResponsesInto(resps []*Response, b []byte) error {
	d := newDecoder(b)
	n, err := batchResponseCount(d)
	if err != nil {
		return err
	}
	if n != len(resps) {
		return fmt.Errorf("proto: batch response of %d sub-ops for %d sub-requests", n, len(resps))
	}
	for i, r := range resps {
		raw := d.view()
		if d.err != nil {
			return fmt.Errorf("proto: decoding batch response %d: %w", i, d.err)
		}
		if err := UnmarshalResponseInto(r, raw); err != nil {
			return fmt.Errorf("proto: batch response %d: %w", i, err)
		}
	}
	return nil
}

// UnmarshalBatchResponses is UnmarshalBatchResponsesInto with fresh
// responses, as many as the payload holds; for callers off the request path.
func UnmarshalBatchResponses(b []byte) ([]*Response, error) {
	n, err := batchResponseCount(newDecoder(b))
	if err != nil {
		return nil, err
	}
	vals := make([]Response, n)
	resps := make([]*Response, n)
	for i := range vals {
		resps[i] = &vals[i]
	}
	if err := UnmarshalBatchResponsesInto(resps, b); err != nil {
		return nil, err
	}
	return resps, nil
}
