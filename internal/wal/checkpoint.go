package wal

import (
	"fmt"
	"hash/crc32"

	"repro/internal/fsapi"
	"repro/internal/proto"
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
}

// Marshal encodes the checkpoint with a trailing CRC so a torn checkpoint
// write is detected at load time.
func (c *Checkpoint) Marshal() []byte {
	e := enc{buf: make([]byte, 4, 1024)} // the CRC is patched in below
	e.u64(c.LSN)
	e.u64(c.NextIno)
	e.u64(c.Epoch)
	e.blob(c.PlaceMap)
	e.u32(uint32(len(c.Inodes)))
	for i := range c.Inodes {
		in := &c.Inodes[i]
		e.u64(in.Local)
		e.u8(uint8(in.Ftype))
		e.u16(uint16(in.Mode))
		e.i64(in.Size)
		e.i32(in.Nlink)
		e.boolean(in.Dist)
		e.u64Slice(in.Blocks)
		e.u32(uint32(len(in.Data)))
		for _, d := range in.Data {
			e.blob(d)
		}
	}
	e.u32(uint32(len(c.Dirs)))
	for i := range c.Dirs {
		dir := &c.Dirs[i]
		e.inode(dir.Dir)
		e.u32(uint32(len(dir.Ents)))
		for _, ent := range dir.Ents {
			e.str(ent.Name)
			e.inode(ent.Target)
			e.u8(uint8(ent.Ftype))
			e.boolean(ent.Dist)
		}
	}
	e.u32(uint32(len(c.DeadDirs)))
	for _, id := range c.DeadDirs {
		e.inode(id)
	}
	putU32(e.buf, crc32.Checksum(e.buf[4:], crcTable))
	return e.buf
}

// UnmarshalCheckpoint decodes and CRC-verifies a checkpoint.
func UnmarshalCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wal: checkpoint too short (%d bytes)", len(b))
	}
	body := b[4:]
	if crc32.Checksum(body, crcTable) != getU32(b) {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	d := newDec(body)
	c := &Checkpoint{}
	c.LSN = d.u64()
	c.NextIno = d.u64()
	c.Epoch = d.u64()
	c.PlaceMap = d.blob()
	nino := int(d.u32())
	for i := 0; i < nino && d.err == nil; i++ {
		var in InodeSnap
		in.Local = d.u64()
		in.Ftype = fsapi.FileType(d.u8())
		in.Mode = fsapi.Mode(d.u16())
		in.Size = d.i64()
		in.Nlink = d.i32()
		in.Dist = d.boolean()
		in.Blocks = d.u64Slice(nil)
		ndata := int(d.u32())
		for j := 0; j < ndata && d.err == nil; j++ {
			in.Data = append(in.Data, d.blob())
		}
		c.Inodes = append(c.Inodes, in)
	}
	ndirs := int(d.u32())
	for i := 0; i < ndirs && d.err == nil; i++ {
		var dir DirSnap
		dir.Dir = d.inode()
		nents := int(d.u32())
		for j := 0; j < nents && d.err == nil; j++ {
			var ent DirEntSnap
			ent.Name = d.str()
			ent.Target = d.inode()
			ent.Ftype = fsapi.FileType(d.u8())
			ent.Dist = d.boolean()
			dir.Ents = append(dir.Ents, ent)
		}
		c.Dirs = append(c.Dirs, dir)
	}
	ndead := int(d.u32())
	for i := 0; i < ndead && d.err == nil; i++ {
		c.DeadDirs = append(c.DeadDirs, d.inode())
	}
	if err := d.finish("checkpoint"); err != nil {
		return nil, err
	}
	return c, nil
}
