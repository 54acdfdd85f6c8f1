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
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/wire"
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
	// Its Name may be a view of a decode buffer: an Image that applies it
	// keeps a copy in the directory's slab (table.Names), never the view.
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
	// RecDirMark marks a directory's shard for deletion: the PREPARE phase
	// of the three-phase rmdir, and a migration COMMIT adopting the mark of
	// an rmdir in flight. A crash before the COMMIT or ABORT leaves the
	// shard marked, so nothing is created in a directory the COMMIT is
	// about to delete (DESIGN.md §3). A DIR_KILL clears it with the shard.
	RecDirMark
	// RecDirUnmark clears a shard's mark (the ABORT phase).
	RecDirUnmark
)

var recNames = map[RecType]string{
	RecInode:     "INODE",
	RecNlink:     "NLINK",
	RecSize:      "SIZE",
	RecBlocks:    "BLOCKS",
	RecWrite:     "WRITE",
	RecAddMap:    "ADD_MAP",
	RecRmMap:     "RM_MAP",
	RecDirKill:   "DIR_KILL",
	RecEpoch:     "EPOCH",
	RecDirMark:   "DIR_MARK",
	RecDirUnmark: "DIR_UNMARK",
}

// String names the record type.
func (t RecType) String() string {
	if s, ok := recNames[t]; ok {
		return s
	}
	return "REC_UNKNOWN"
}

// Record is one logged mutation. Its fields are the union of what the record
// types carry, and each type's frame carries exactly the fields Image.Apply
// reads for it — no more (the table in DESIGN.md §6):
//
//	INODE     Ino, Ftype, Mode, Dist, Nlink
//	NLINK     Ino, Nlink
//	SIZE      Ino, Size
//	BLOCKS    Ino, Size, Blocks
//	WRITE     Ino, Off, Data
//	ADD_MAP   Dir, Name, Target, Ftype, Dist
//	RM_MAP    Dir, Name
//	DIR_KILL  Dir
//	EPOCH     Epoch, Data
//	DIR_MARK  Dir
//	DIR_UNMARK Dir
//
// Every record also carries its LSN and Type. A field its type does not
// carry is not logged, and reads as zero once the record is decoded.
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
// batch of any size is encoded into a single buffer. The body is the LSN, the
// type, and the fields of that type (Record), in that order.
func appendFrame(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = wire.AppendU64(buf, r.LSN)
	buf = wire.AppendU8(buf, uint8(r.Type))
	switch r.Type {
	case RecInode:
		buf = wire.AppendU64(buf, r.Ino)
		buf = wire.AppendU8(buf, uint8(r.Ftype))
		buf = wire.AppendU16(buf, uint16(r.Mode))
		buf = wire.AppendBool(buf, r.Dist)
		buf = wire.AppendI32(buf, r.Nlink)
	case RecNlink:
		buf = wire.AppendU64(buf, r.Ino)
		buf = wire.AppendI32(buf, r.Nlink)
	case RecSize:
		buf = wire.AppendU64(buf, r.Ino)
		buf = wire.AppendI64(buf, r.Size)
	case RecBlocks:
		buf = wire.AppendU64(buf, r.Ino)
		buf = wire.AppendI64(buf, r.Size)
		buf = wire.AppendU64Slice(buf, r.Blocks)
	case RecWrite:
		buf = wire.AppendU64(buf, r.Ino)
		buf = wire.AppendI64(buf, r.Off)
		buf = wire.AppendBlob(buf, r.Data)
	case RecAddMap:
		buf = proto.AppendInode(buf, r.Dir)
		buf = wire.AppendStr(buf, r.Name)
		buf = proto.AppendInode(buf, r.Target)
		buf = wire.AppendU8(buf, uint8(r.Ftype))
		buf = wire.AppendBool(buf, r.Dist)
	case RecRmMap:
		buf = proto.AppendInode(buf, r.Dir)
		buf = wire.AppendStr(buf, r.Name)
	case RecDirKill, RecDirMark, RecDirUnmark:
		buf = proto.AppendInode(buf, r.Dir)
	case RecEpoch:
		buf = wire.AppendU64(buf, r.Epoch)
		buf = wire.AppendBlob(buf, r.Data)
	default:
		// A record no decoder would read back must not reach the log.
		panic(fmt.Sprintf("wal: encoding a record of unknown type %d", r.Type))
	}
	body := buf[start+frameHeader:]
	wire.PutU32(buf[start:], uint32(len(body)))
	wire.PutU32(buf[start+4:], crc32.Checksum(body, crcTable))
	return buf
}

// appendFrames appends every record of the batch to buf, in order.
func appendFrames(buf []byte, recs []Record) []byte {
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	return buf
}

var (
	errUnknownType = errors.New("unknown record type")
	errTrailing    = errors.New("bytes after the record's fields")
)

// decodeRecord parses one record body into a fresh record that shares
// nothing with b.
func decodeRecord(b []byte) (Record, error) {
	var r Record
	err := decodeRecordInto(&r, wire.NewDecoder(b))
	return r, err
}

// decodeRecordInto parses one record body into r, every field of which is
// overwritten: the fields r's type carries are decoded, the rest zeroed. The
// capacity r's Blocks brings is kept whatever the type, and a BLOCKS record
// decodes into it. A body of an unknown type, or with bytes left over after
// its type's fields, fails.
func decodeRecordInto(r *Record, d *wire.Decoder) error {
	*r = Record{Blocks: r.Blocks[:0]}
	r.LSN = d.U64()
	r.Type = RecType(d.U8())
	switch r.Type {
	case RecInode:
		r.Ino = d.U64()
		r.Ftype = fsapi.FileType(d.U8())
		r.Mode = fsapi.Mode(d.U16())
		r.Dist = d.Bool()
		r.Nlink = d.I32()
	case RecNlink:
		r.Ino = d.U64()
		r.Nlink = d.I32()
	case RecSize:
		r.Ino = d.U64()
		r.Size = d.I64()
	case RecBlocks:
		r.Ino = d.U64()
		r.Size = d.I64()
		r.Blocks = d.U64Slice(r.Blocks)
	case RecWrite:
		r.Ino = d.U64()
		r.Off = d.I64()
		r.Data = d.Blob()
	case RecAddMap:
		r.Dir = proto.DecodeInode(d)
		r.Name = d.Str()
		r.Target = proto.DecodeInode(d)
		r.Ftype = fsapi.FileType(d.U8())
		r.Dist = d.Bool()
	case RecRmMap:
		r.Dir = proto.DecodeInode(d)
		r.Name = d.Str()
	case RecDirKill, RecDirMark, RecDirUnmark:
		r.Dir = proto.DecodeInode(d)
	case RecEpoch:
		r.Epoch = d.U64()
		r.Data = d.Blob()
	default:
		d.Fail(errUnknownType)
	}
	if d.Remaining() != 0 {
		d.Fail(errTrailing)
	}
	return d.Finish("wal: decoding record")
}

// EncodeRecords serializes a batch of records in the log's frame format
// (length + CRC per record): the bytes Log.Append writes to the store for the
// same records, and the encoding a replication ship carries.
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
		d := wire.NewDecoder(body)
		d.Lend = true
		if err := decodeRecordInto(&recs[len(recs)-1], d); err != nil {
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
	n := int(wire.U32(b[0:]))
	sum := wire.U32(b[4:])
	if len(b) < frameHeader+n {
		return nil, nil, fmt.Errorf("wal: truncated frame body (want %d, have %d)", n, len(b)-frameHeader)
	}
	body = b[frameHeader : frameHeader+n]
	if crc32.Checksum(body, crcTable) != sum {
		return nil, nil, fmt.Errorf("wal: frame CRC mismatch")
	}
	return body, b[frameHeader+n:], nil
}
