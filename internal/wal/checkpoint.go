package wal

import (
	"fmt"
	"hash/crc32"

	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/wire"
)

// InodeSnap is one inode in a checkpoint: metadata, block list, and — so a
// checkpoint doubles as a full backup of the server's buffer-cache
// partition — the contents of each block. Data[i] holds the bytes of
// Blocks[i]; a nil entry means the block was never written (reads as
// zeros).
//
// Volatile runtime state is deliberately absent: open-descriptor counts,
// shared descriptors, pipe buffers, rmdir marks, and invalidation tracking
// die with the server process, exactly like open file descriptors die with
// a real machine.
type InodeSnap struct {
	Local uint64
	Ftype fsapi.FileType
	Mode  fsapi.Mode
	Size  int64
	Nlink int32
	Dist  bool

	Blocks []uint64
	Data   [][]byte
}

// DirEntSnap is one directory entry in a checkpoint.
type DirEntSnap struct {
	Name   string
	Target proto.InodeID
	Ftype  fsapi.FileType
	Dist   bool
}

// DirSnap is this server's shard of one directory.
type DirSnap struct {
	Dir  proto.InodeID
	Ents []DirEntSnap
}

// Checkpoint is a complete snapshot of one file server's durable state at a
// log position. Recovery loads the checkpoint and replays only records with
// LSN > the checkpoint's LSN (in this implementation the log is truncated
// at checkpoint time, so every surviving record qualifies).
type Checkpoint struct {
	// LSN is the last log sequence number reflected in the snapshot.
	LSN uint64
	// NextIno preserves the server's inode-number allocator so recovered
	// servers never reissue a live inode number.
	NextIno uint64

	// Epoch and PlaceMap preserve the placement-map epoch the server had
	// adopted (the encoded map, place.Map.Encode). Zero/nil on servers
	// that never migrated past their boot map; recovery then falls back
	// to the deployment's initial map (DESIGN.md §9).
	Epoch    uint64
	PlaceMap []byte

	Inodes   []InodeSnap
	Dirs     []DirSnap
	DeadDirs []proto.InodeID
	// Marked lists the directories whose shard here an rmdir's PREPARE
	// marked and no COMMIT or ABORT has resolved yet (RecDirMark).
	Marked []proto.InodeID
}

// Marshal encodes the checkpoint with a trailing CRC so a torn checkpoint
// write is detected at load time.
func (c *Checkpoint) Marshal() []byte {
	b := make([]byte, 4, 1024) // the CRC is patched in below
	b = wire.AppendU64(b, c.LSN)
	b = wire.AppendU64(b, c.NextIno)
	b = wire.AppendU64(b, c.Epoch)
	b = wire.AppendBlob(b, c.PlaceMap)
	b = wire.AppendU32(b, uint32(len(c.Inodes)))
	for i := range c.Inodes {
		in := &c.Inodes[i]
		b = wire.AppendU64(b, in.Local)
		b = wire.AppendU8(b, uint8(in.Ftype))
		b = wire.AppendU16(b, uint16(in.Mode))
		b = wire.AppendI64(b, in.Size)
		b = wire.AppendI32(b, in.Nlink)
		b = wire.AppendBool(b, in.Dist)
		b = wire.AppendU64Slice(b, in.Blocks)
		b = wire.AppendU32(b, uint32(len(in.Data)))
		for _, d := range in.Data {
			b = wire.AppendBlob(b, d)
		}
	}
	b = wire.AppendU32(b, uint32(len(c.Dirs)))
	for i := range c.Dirs {
		dir := &c.Dirs[i]
		b = proto.AppendInode(b, dir.Dir)
		b = wire.AppendU32(b, uint32(len(dir.Ents)))
		for _, ent := range dir.Ents {
			b = wire.AppendStr(b, ent.Name)
			b = proto.AppendInode(b, ent.Target)
			b = wire.AppendU8(b, uint8(ent.Ftype))
			b = wire.AppendBool(b, ent.Dist)
		}
	}
	b = wire.AppendU32(b, uint32(len(c.DeadDirs)))
	for _, id := range c.DeadDirs {
		b = proto.AppendInode(b, id)
	}
	b = wire.AppendU32(b, uint32(len(c.Marked)))
	for _, id := range c.Marked {
		b = proto.AppendInode(b, id)
	}
	wire.PutU32(b, crc32.Checksum(b[4:], crcTable))
	return b
}

// UnmarshalCheckpoint decodes and CRC-verifies a checkpoint.
func UnmarshalCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(b))
	}
	body := b[4:]
	if crc32.Checksum(body, crcTable) != wire.U32(b) {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	d := wire.NewDecoder(body)
	c := &Checkpoint{}
	c.LSN = d.U64()
	c.NextIno = d.U64()
	c.Epoch = d.U64()
	c.PlaceMap = d.Blob()
	nino := int(d.U32())
	for i := 0; i < nino && d.Err() == nil; i++ {
		var in InodeSnap
		in.Local = d.U64()
		in.Ftype = fsapi.FileType(d.U8())
		in.Mode = fsapi.Mode(d.U16())
		in.Size = d.I64()
		in.Nlink = d.I32()
		in.Dist = d.Bool()
		in.Blocks = d.U64Slice(nil)
		ndata := int(d.U32())
		for j := 0; j < ndata && d.Err() == nil; j++ {
			in.Data = append(in.Data, d.Blob())
		}
		c.Inodes = append(c.Inodes, in)
	}
	ndirs := int(d.U32())
	for i := 0; i < ndirs && d.Err() == nil; i++ {
		var dir DirSnap
		dir.Dir = proto.DecodeInode(d)
		nents := int(d.U32())
		for j := 0; j < nents && d.Err() == nil; j++ {
			var ent DirEntSnap
			ent.Name = d.Str()
			ent.Target = proto.DecodeInode(d)
			ent.Ftype = fsapi.FileType(d.U8())
			ent.Dist = d.Bool()
			dir.Ents = append(dir.Ents, ent)
		}
		c.Dirs = append(c.Dirs, dir)
	}
	ndead := int(d.U32())
	for i := 0; i < ndead && d.Err() == nil; i++ {
		c.DeadDirs = append(c.DeadDirs, proto.DecodeInode(d))
	}
	nmarked := int(d.U32())
	for i := 0; i < nmarked && d.Err() == nil; i++ {
		c.Marked = append(c.Marked, proto.DecodeInode(d))
	}
	if err := d.Finish("wal: decoding checkpoint"); err != nil {
		return nil, err
	}
	return c, nil
}
