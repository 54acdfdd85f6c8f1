package proto

import "repro/internal/fsapi"

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
	e := newEncoder(size)
	e.blob(m.MapBlob)
	e.u32(uint32(len(m.Entries)))
	for i := range m.Entries {
		ent := &m.Entries[i]
		e.inode(ent.Dir)
		e.str(ent.Name)
		e.inode(ent.Target)
		e.u8(uint8(ent.Ftype))
		e.boolean(ent.Dist)
	}
	e.u32(uint32(len(m.Marked)))
	for _, dir := range m.Marked {
		e.inode(dir)
	}
	e.u32(uint32(len(m.DeadDirs)))
	for _, dir := range m.DeadDirs {
		e.inode(dir)
	}
	return e.bytes()
}

// Every count is checked against the bytes left before anything is sized
// from it: an entry takes at least migEntryMin bytes, an inode id inodeWire.
const (
	inodeWire   = 12
	migEntryMin = 2*inodeWire + 4 + 2
)

// UnmarshalShardMsg decodes a shard message.
func UnmarshalShardMsg(b []byte) (*ShardMsg, error) {
	d := newDecoder(b)
	m := &ShardMsg{}
	m.MapBlob = d.blob()
	if n := d.count(migEntryMin); n > 0 {
		m.Entries = make([]MigEntry, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			var ent MigEntry
			ent.Dir = d.inode()
			ent.Name = d.str()
			ent.Target = d.inode()
			ent.Ftype = fsapi.FileType(d.u8())
			ent.Dist = d.boolean()
			m.Entries = append(m.Entries, ent)
		}
	}
	nmarked := d.count(inodeWire)
	for i := 0; i < nmarked && d.err == nil; i++ {
		m.Marked = append(m.Marked, d.inode())
	}
	ndead := d.count(inodeWire)
	for i := 0; i < ndead && d.err == nil; i++ {
		m.DeadDirs = append(m.DeadDirs, d.inode())
	}
	if err := d.finish("shard message"); err != nil {
		return nil, err
	}
	return m, nil
}
