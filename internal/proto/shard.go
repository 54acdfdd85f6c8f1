package proto

import (
	"repro/internal/fsapi"
	"repro/internal/wire"
)

// Shard-migration payloads (elastic placement, DESIGN.md §9).
//
// SHARD_PULL and SHARD_COMMIT carry a ShardMsg in Request.Data /
// Response.Data: the encoded target placement map (opaque to this package —
// produced and consumed by internal/place) plus the directory entries in
// flight. Only distributed-directory entries ever travel this way; inodes
// never migrate.

// MigEntry is one directory entry being handed between servers during a
// shard migration.
type MigEntry struct {
	Dir    InodeID
	Name   string
	Target InodeID
	Ftype  fsapi.FileType
	Dist   bool
}

// ShardMsg is the payload of the shard-migration operations.
type ShardMsg struct {
	// MapBlob is the encoded target placement map (place.Map.Encode).
	MapBlob []byte
	// Entries are the directory entries in flight: the outgoing set in a
	// SHARD_PULL response, the incoming set in a SHARD_COMMIT request.
	Entries []MigEntry
	// Marked lists distributed directories whose shards sit between the
	// PREPARE and COMMIT/ABORT phases of an rmdir; the mark must exist on
	// the new owners too, or a create racing the rmdir could land on an
	// unmarked shard and be destroyed by the rmdir's commit.
	Marked []InodeID
	// DeadDirs are rmdir tombstones; without them a later-added member
	// would accept entries into a directory that no longer exists.
	DeadDirs []InodeID
}

// Marshal encodes the shard message.
func (m *ShardMsg) Marshal() []byte {
	size := 16 + len(m.MapBlob)
	for i := range m.Entries {
		size += 32 + len(m.Entries[i].Name)
	}
	buf := make([]byte, 0, size)
	buf = wire.AppendBlob(buf, m.MapBlob)
	buf = wire.AppendU32(buf, uint32(len(m.Entries)))
	for i := range m.Entries {
		ent := &m.Entries[i]
		buf = AppendInode(buf, ent.Dir)
		buf = wire.AppendStr(buf, ent.Name)
		buf = AppendInode(buf, ent.Target)
		buf = wire.AppendU8(buf, uint8(ent.Ftype))
		buf = wire.AppendBool(buf, ent.Dist)
	}
	buf = wire.AppendU32(buf, uint32(len(m.Marked)))
	for _, dir := range m.Marked {
		buf = AppendInode(buf, dir)
	}
	buf = wire.AppendU32(buf, uint32(len(m.DeadDirs)))
	for _, dir := range m.DeadDirs {
		buf = AppendInode(buf, dir)
	}
	return buf
}

// Every count is checked against the bytes left before anything is sized
// from it: an entry takes at least migEntryMin bytes, an inode id inodeWire.
const (
	inodeWire   = 12
	migEntryMin = 2*inodeWire + 4 + 2
)

// UnmarshalShardMsg decodes a shard message.
func UnmarshalShardMsg(b []byte) (*ShardMsg, error) {
	d := wire.NewDecoder(b)
	m := &ShardMsg{}
	m.MapBlob = d.Blob()
	if n := d.Count(migEntryMin); n > 0 {
		m.Entries = make([]MigEntry, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			var ent MigEntry
			ent.Dir = DecodeInode(d)
			ent.Name = d.Str()
			ent.Target = DecodeInode(d)
			ent.Ftype = fsapi.FileType(d.U8())
			ent.Dist = d.Bool()
			m.Entries = append(m.Entries, ent)
		}
	}
	nmarked := d.Count(inodeWire)
	for i := 0; i < nmarked && d.Err() == nil; i++ {
		m.Marked = append(m.Marked, DecodeInode(d))
	}
	ndead := d.Count(inodeWire)
	for i := 0; i < ndead && d.Err() == nil; i++ {
		m.DeadDirs = append(m.DeadDirs, DecodeInode(d))
	}
	if err := d.Finish("proto: decoding shard message"); err != nil {
		return nil, err
	}
	return m, nil
}
