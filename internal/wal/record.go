// Package wal is Hare's durability subsystem: a per-file-server write-ahead
// log with a virtual-time commit point, checkpoints, and crash recovery.
//
// The paper scopes durability out — the file system lives entirely in
// non-cache-coherent DRAM and a server crash loses its shard of the
// namespace. This package closes that gap. Every file server appends a
// CRC-framed record to its own segmented log for each namespace or file
// mutation it performs (creates, links, unlinks, directory-entry changes,
// block-list changes, server-path data writes). Periodically the server
// snapshots its entire state — inode table, directory shards, and the
// contents of the buffer-cache blocks its files own — into a checkpoint and
// truncates the log. Recovery rebuilds the server's state from the latest
// checkpoint plus an idempotent replay of the log's tail.
//
// Commit point: a mutation is acknowledged only once the flush carrying its
// records has ended. A flush starts as soon as the log device is free and
// its cost is charged to the simulator's cost model, so durability shows up
// as latency and throughput in virtual-time benchmarks the way an fsync
// would on real hardware.
//
// See DESIGN.md §6 for how this subsystem composes with the paper's design.
package wal

import (
	"fmt"
	"hash/crc32"

	"repro/internal/fsapi"
	"repro/internal/proto"
)

// RecType identifies the kind of mutation a log record describes.
type RecType uint8

// Record types. Each record is a *state assignment* (it carries the
// resulting value, not a delta) so that replaying a record twice, or
// replaying records already reflected in a checkpoint, is harmless.
const (
	recInvalid RecType = iota
	// RecInode creates an inode (mknod, the create half of the coalesced
	// create, mkdir's directory inode).
	RecInode
	// RecNlink assigns an inode's link count; replay reaps the inode when
	// the count reaches zero (link, unlink, rename's unlink phase, the
	// FINISH phase of the three-phase rmdir).
	RecNlink
	// RecSize assigns an inode's logical size (SET_SIZE, and the coalesced
	// size carried on CLOSE after direct-access writes).
	RecSize
	// RecBlocks assigns an inode's block list and size (extend, truncate,
	// O_TRUNC on open). The record stores the actual block ids so replay
	// re-reserves the same DRAM blocks that surviving client libraries and
	// buffer-cache contents still refer to.
	RecBlocks
	// RecWrite carries file data written through the server (WRITE_AT and
	// FD_WRITE when direct access is off, or any server-path write). The
	// offset is pre-resolved: append-mode writes record the offset actually
	// used.
	RecWrite
	// RecAddMap upserts one directory entry (create, mkdir, link, and the
	// ADD_MAP phase of rename — Replace semantics make replay idempotent).
	RecAddMap
	// RecRmMap removes one directory entry (unlink, rmdir's shard, and the
	// RM_MAP phase of rename).
	RecRmMap
	// RecDirKill tombstones a removed directory: the shard is dropped and
	// the directory id joins the dead set (the COMMIT and FINISH phases of
	// the three-phase rmdir).
	RecDirKill
	// RecEpoch records that the server adopted a new placement-map epoch
	// at the commit point of a shard migration. Epoch carries the epoch
	// number, Data the encoded map (DESIGN.md §9). It is logged in the
	// same batch as the migration's entry installs/removals, so recovery
	// lands on exactly one side of the epoch boundary — never both.
	RecEpoch
)

var recNames = map[RecType]string{
	RecInode:   "INODE",
	RecNlink:   "NLINK",
	RecSize:    "SIZE",
	RecBlocks:  "BLOCKS",
	RecWrite:   "WRITE",
	RecAddMap:  "ADD_MAP",
	RecRmMap:   "RM_MAP",
	RecDirKill: "DIR_KILL",
	RecEpoch:   "EPOCH",
}

// String names the record type.
func (t RecType) String() string {
	if s, ok := recNames[t]; ok {
		return s
	}
	return "REC_UNKNOWN"
}

// Record is one logged mutation. Only the fields relevant to the record's
// type are meaningful; like the RPC protocol's Request, a single fixed shape
// keeps the framing simple and uniform.
type Record struct {
	// LSN is the record's log sequence number, assigned by Log.Append.
	// LSNs are dense and strictly increasing within one server's log.
	LSN uint64
	// Type selects which of the remaining fields are meaningful.
	Type RecType

	// Ino is the local inode number the record applies to (inode records).
	Ino uint64
	// Dir and Name address one directory entry (entry records).
	Dir  proto.InodeID
	Name string
	// Target is the inode a directory entry points at.
	Target proto.InodeID

	Ftype fsapi.FileType
	Mode  fsapi.Mode
	Dist  bool

	Size   int64
	Off    int64
	Nlink  int32
	Blocks []uint64
	Data   []byte

	// Epoch is the placement-map epoch adopted by a RecEpoch record (the
	// encoded map itself travels in Data).
	Epoch uint64
}

// frame layout: u32 payload length, u32 CRC-32 (IEEE) of the payload,
// payload bytes. A torn or corrupted tail frame fails the CRC and replay
// stops there, which is exactly the write-ahead-log contract: everything
// acknowledged was flushed in a complete frame.
const frameHeader = 8

// castagnoli would also do; IEEE matches Go's crc32 default table.
var crcTable = crc32.MakeTable(crc32.IEEE)

// appendFrame appends r to buf as one frame: the header is reserved, the body
// encoded in place behind it, and length and CRC patched in afterwards, so a
// batch of any size is encoded into a single buffer.
func appendFrame(buf []byte, r *Record) []byte {
	start := len(buf)
	e := enc{buf: append(buf, make([]byte, frameHeader)...)}
	e.u64(r.LSN)
	e.u8(uint8(r.Type))
	e.u64(r.Ino)
	e.inode(r.Dir)
	e.str(r.Name)
	e.inode(r.Target)
	e.u8(uint8(r.Ftype))
	e.u16(uint16(r.Mode))
	e.boolean(r.Dist)
	e.i64(r.Size)
	e.i64(r.Off)
	e.i32(r.Nlink)
	e.u64Slice(r.Blocks)
	e.blob(r.Data)
	e.u64(r.Epoch)
	body := e.buf[start+frameHeader:]
	putU32(e.buf[start:], uint32(len(body)))
	putU32(e.buf[start+4:], crc32.Checksum(body, crcTable))
	return e.buf
}

// appendFrames appends every record of the batch to buf, in order.
func appendFrames(buf []byte, recs []Record) []byte {
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	return buf
}

// decodeRecord parses one record body into a fresh record that shares
// nothing with b.
func decodeRecord(b []byte) (Record, error) {
	var r Record
	err := decodeRecordInto(&r, newDec(b))
	return r, err
}

// decodeRecordInto parses one record body into r, every field of which is
// overwritten; Blocks is decoded into the capacity r brings.
func decodeRecordInto(r *Record, d *dec) error {
	r.LSN = d.u64()
	r.Type = RecType(d.u8())
	r.Ino = d.u64()
	r.Dir = d.inode()
	r.Name = d.str()
	r.Target = d.inode()
	r.Ftype = fsapi.FileType(d.u8())
	r.Mode = fsapi.Mode(d.u16())
	r.Dist = d.boolean()
	r.Size = d.i64()
	r.Off = d.i64()
	r.Nlink = d.i32()
	r.Blocks = d.u64Slice(r.Blocks)
	r.Data = d.blob()
	r.Epoch = d.u64()
	return d.finish("wal record")
}

// EncodeRecords serializes a batch of records in the log's frame format
// (length + CRC per record): the bytes Log.Append writes to the store for the
// same records, and the encoding REPL_APPEND payloads carry.
func EncodeRecords(recs []Record) []byte {
	return appendFrames(nil, recs)
}

// DecodeRecordsInto parses a batch of frames (EncodeRecords, Log.LastFrames)
// into recs[:0] and returns the extended slice. It is the decoder of a shipped
// batch, which arrives in a buffer that is recycled and is applied at once, so
// it decodes in place: a record's Name and Data point into frames, and its
// Blocks into the capacity the slot held before. The records are therefore
// the caller's to read until frames is overwritten or recs decoded into again
// — it calls ReleaseRecords before either — and whoever keeps any of it
// copies it.
//
// Unlike log-tail replay — where a torn final frame is the expected crash
// signature and marks the end of the durable prefix — a shipped batch travels
// in one message and must be complete: any framing, CRC or body error rejects
// the whole batch, before the caller has seen a single record, so a follower
// never applies part of a ship.
func DecodeRecordsInto(recs []Record, frames []byte) ([]Record, error) {
	recs = recs[:0]
	for len(frames) > 0 {
		body, rest, err := unframe(frames)
		if err != nil {
			return ReleaseRecords(recs), fmt.Errorf("wal: shipped batch record %d: %w", len(recs), err)
		}
		if len(recs) < cap(recs) {
			recs = recs[:len(recs)+1]
		} else {
			recs = append(recs, Record{})
		}
		if err := decodeRecordInto(&recs[len(recs)-1], &dec{buf: body, inPlace: true}); err != nil {
			return ReleaseRecords(recs), fmt.Errorf("wal: shipped batch record %d: %w", len(recs)-1, err)
		}
		frames = rest
	}
	return recs, nil
}

// ReleaseRecords ends the life of a batch decoded in place, before the bytes
// under it change: the records let go of what they pointed at in the frames,
// and the emptied slice comes back for the next decode with the block lists'
// capacity — unless the batch was an outsized one, whose slots are not kept.
func ReleaseRecords(recs []Record) []Record {
	for i := range recs {
		recs[i].Name, recs[i].Data = "", nil
	}
	if cap(recs) > maxRecycledRecords {
		return nil
	}
	return recs[:0]
}

// maxRecycledRecords is well above what one request logs; a shard migration's
// commit, one record per entry moved, can exceed it.
const maxRecycledRecords = 256

// unframe reads one frame from b, returning the body and remaining bytes.
// A short or corrupt frame returns an error; callers treat an error at the
// log tail as the end of the durable prefix.
func unframe(b []byte) (body, rest []byte, err error) {
	if len(b) < frameHeader {
		return nil, nil, fmt.Errorf("wal: truncated frame header (%d bytes)", len(b))
	}
	n := int(getU32(b[0:]))
	sum := getU32(b[4:])
	if len(b) < frameHeader+n {
		return nil, nil, fmt.Errorf("wal: truncated frame body (want %d, have %d)", n, len(b)-frameHeader)
	}
	body = b[frameHeader : frameHeader+n]
	if crc32.Checksum(body, crcTable) != sum {
		return nil, nil, fmt.Errorf("wal: frame CRC mismatch")
	}
	return body, b[frameHeader+n:], nil
}
