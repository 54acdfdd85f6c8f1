package wal

import (
	"bytes"
	"cmp"
	"slices"
	"strings"

	"repro/internal/fsapi"
	"repro/internal/ncc"
	"repro/internal/proto"
	"repro/internal/table"
)

// imgInode is one inode of an Image: exactly the fields records and
// checkpoints carry. Volatile runtime state (descriptor counts, versions,
// who has an entry cached) is absent by construction because it is never
// logged.
type imgInode struct {
	local  uint64
	ftype  fsapi.FileType
	mode   fsapi.Mode
	size   int64
	nlink  int32
	dist   bool
	blocks ncc.BlockMap
}

// imgEnt is one directory entry of an Image.
type imgEnt struct {
	target proto.InodeID
	ftype  fsapi.FileType
	dist   bool
}

// imgShard is one directory's entries in an Image, their names kept in the
// shard's slab, as a server's directory shard keeps them.
type imgShard struct {
	ents  map[string]imgEnt
	names table.Names
}

// put stores ent under a copy of name in the shard's slab. A name already
// present takes the copy too — assigning through an existing key makes the
// map's key the assigned string — and the old key is dropped.
func (sh *imgShard) put(name string, ent imgEnt) {
	_, had := sh.ents[name]
	name = sh.names.Keep(name)
	sh.ents[name] = ent
	if had {
		sh.names.Drop(name, sh.rekey)
	}
}

func (sh *imgShard) remove(name string) {
	if _, ok := sh.ents[name]; ok {
		delete(sh.ents, name)
		sh.names.Drop(name, sh.rekey)
	}
}

// rekey stores every entry under keep's copy of its name: assigning through
// an existing key during a range replaces the key and adds nothing.
func (sh *imgShard) rekey(keep func(string) string) {
	for name, ent := range sh.ents {
		sh.ents[keep(name)] = ent
	}
}

// Image is the durable state that a checkpoint plus a log prefix describe:
// the one definition of what a record does to durable state (DESIGN.md §6).
// Recovery loads the checkpoint, applies the log tail and installs
// Checkpoint(); a replica (repl.Follower) applies shipped batches as they
// arrive and installs the same Checkpoint() at promotion (§12). Applying is
// pure — nothing outside the image changes — so a replay can run, and fail,
// before the server it rebuilds is touched.
//
// Block contents live in the image, not in DRAM: a block no record or
// checkpoint wrote has no bytes and reads as zeros, as the allocator hands a
// block over zeroed. A block that enters or leaves an inode's list loses its
// bytes, so a reused block never shows its previous owner's contents.
type Image struct {
	blockSize int

	nextIno uint64
	epoch   uint64
	pmap    []byte

	inodes *table.Dense[imgInode]
	dirs   map[proto.InodeID]*imgShard
	dead   map[proto.InodeID]bool
	marked map[proto.InodeID]bool
	// chunks holds block id → contents for blocks some live inode owns
	// and a record or checkpoint wrote.
	chunks map[uint64][]byte
}

// NewImage returns the image of an empty log: no inodes, and inode numbers
// issued from 2 on, as a booting server issues them.
func NewImage(blockSize int) *Image {
	m := &Image{blockSize: blockSize}
	m.Load(&Checkpoint{})
	return m
}

// Load replaces the image's state with a checkpoint's. The image keeps
// copies: c is the caller's again when Load returns.
func (m *Image) Load(c *Checkpoint) {
	m.nextIno = max(c.NextIno, 2)
	m.epoch, m.pmap = c.Epoch, bytes.Clone(c.PlaceMap)
	m.inodes = table.NewDense[imgInode]()
	m.dirs = make(map[proto.InodeID]*imgShard)
	m.dead = make(map[proto.InodeID]bool)
	m.marked = make(map[proto.InodeID]bool)
	m.chunks = make(map[uint64][]byte)
	for i := range c.Inodes {
		snap := &c.Inodes[i]
		ino := m.inodes.Put(snap.Local)
		*ino = imgInode{
			local: snap.Local,
			ftype: snap.Ftype,
			mode:  snap.Mode,
			size:  snap.Size,
			nlink: snap.Nlink,
			dist:  snap.Dist,
		}
		for j, b := range snap.Blocks {
			ino.blocks.Append(ncc.BlockID(b))
			if j < len(snap.Data) && snap.Data[j] != nil {
				m.chunks[b] = append([]byte(nil), snap.Data[j]...)
			}
		}
		// The last number of the space reserves nothing rather than wrap
		// the counter back to numbers already issued.
		if ino.local+1 > m.nextIno {
			m.nextIno = ino.local + 1
		}
	}
	for i := range c.Dirs {
		ds := &c.Dirs[i]
		sh := m.shard(ds.Dir)
		for _, ent := range ds.Ents {
			sh.put(ent.Name, imgEnt{target: ent.Target, ftype: ent.Ftype, dist: ent.Dist})
		}
	}
	for _, dir := range c.DeadDirs {
		m.dead[dir] = true
	}
	for _, dir := range c.Marked {
		m.marked[dir] = true
	}
}

func (m *Image) shard(dir proto.InodeID) *imgShard {
	sh, ok := m.dirs[dir]
	if !ok {
		sh = &imgShard{ents: make(map[string]imgEnt)}
		m.dirs[dir] = sh
	}
	return sh
}

// Apply applies one record. Records carry resulting state, so applying one
// twice is harmless; a record naming an inode that a later (or
// checkpoint-reflected) unlink removed is skipped. r, and everything it
// points at, is the caller's again when Apply returns: the image copies
// what it keeps — a name it stores an entry under, a block list, file
// bytes, an epoch's map — and nothing else.
func (m *Image) Apply(r Record) {
	switch r.Type {
	case RecInode:
		if r.Ino+1 > m.nextIno {
			m.nextIno = r.Ino + 1
		}
		if r.Ftype == fsapi.TypePipe {
			// Pipe state is volatile; the record only reserves the number
			// so it is not reissued to a new file.
			return
		}
		*m.inodes.Put(r.Ino) = imgInode{
			local: r.Ino,
			ftype: r.Ftype,
			mode:  r.Mode,
			nlink: r.Nlink,
			dist:  r.Dist,
		}
	case RecNlink:
		ino, ok := m.inodes.Get(r.Ino)
		if !ok {
			return
		}
		ino.nlink = r.Nlink
		if ino.nlink <= 0 {
			// No descriptor survives a crash, so the inode reaps at once,
			// and its blocks' bytes with it.
			ino.blocks.Runs(func(e ncc.Extent) bool {
				for j := uint64(0); j < e.Count; j++ {
					delete(m.chunks, uint64(e.Start)+j)
				}
				return true
			})
			m.inodes.Delete(r.Ino)
		}
	case RecSize:
		if ino, ok := m.inodes.Get(r.Ino); ok && r.Size > ino.size {
			ino.size = r.Size
		}
	case RecBlocks:
		ino, ok := m.inodes.Get(r.Ino)
		if !ok {
			return
		}
		// A block entering this inode's map starts zeroed, as the
		// allocator hands it over, and a block leaving it keeps no bytes;
		// retained blocks keep their contents. A map grows and shrinks at
		// its end, so past the common prefix there is next to nothing to
		// search.
		keep := 0
		ino.blocks.Runs(func(e ncc.Extent) bool {
			for j := uint64(0); j < e.Count; j++ {
				if keep == len(r.Blocks) || r.Blocks[keep] != uint64(e.Start)+j {
					return false
				}
				keep++
			}
			return true
		})
		tail := r.Blocks[keep:]
		ino.blocks.RunsIn(keep, ino.blocks.Len(), func(e ncc.Extent) bool {
			for j := uint64(0); j < e.Count; j++ {
				if b := uint64(e.Start) + j; !slices.Contains(tail, b) {
					delete(m.chunks, b)
				}
			}
			return true
		})
		for _, b := range tail {
			if !ino.blocks.Contains(ncc.BlockID(b)) {
				delete(m.chunks, b)
			}
		}
		ino.blocks.Reset()
		for _, b := range r.Blocks {
			ino.blocks.Append(ncc.BlockID(b))
		}
		ino.size = r.Size
	case RecWrite:
		ino, ok := m.inodes.Get(r.Ino)
		if !ok {
			return
		}
		m.writeData(ino, r.Off, r.Data)
		if end := r.Off + int64(len(r.Data)); end > ino.size {
			ino.size = end
		}
	case RecAddMap:
		m.shard(r.Dir).put(r.Name, imgEnt{target: r.Target, ftype: r.Ftype, dist: r.Dist})
	case RecRmMap:
		if sh, ok := m.dirs[r.Dir]; ok {
			sh.remove(r.Name)
		}
	case RecDirKill:
		delete(m.dirs, r.Dir)
		delete(m.marked, r.Dir)
		m.dead[r.Dir] = true
	case RecDirMark:
		if !m.dead[r.Dir] {
			m.marked[r.Dir] = true
		}
	case RecDirUnmark:
		delete(m.marked, r.Dir)
	case RecEpoch:
		m.epoch = r.Epoch
		m.pmap = bytes.Clone(r.Data)
	}
}

// writeData lays file bytes into the image's blocks, splitting across the
// inode's block map run by run the way a server's write splits across DRAM.
// Bytes past the logged map have nothing to hold them.
func (m *Image) writeData(ino *imgInode, off int64, data []byte) {
	bs := int64(m.blockSize)
	boff := int(off % bs)
	ino.blocks.RunsIn(int(off/bs), int((off+int64(len(data))+bs-1)/bs), func(e ncc.Extent) bool {
		for j := uint64(0); j < e.Count; j++ {
			b := uint64(e.Start) + j
			chunk := m.chunks[b]
			if chunk == nil {
				chunk = make([]byte, m.blockSize)
				m.chunks[b] = chunk
			}
			data = data[copy(chunk[boff:], data):]
			boff = 0
		}
		return true
	})
}

// Checkpoint converts the image into a checkpoint, in the exact shape a
// server's own snapshot of its live state takes, for the server to install
// unmodified. The LSN is left zero: which log position the image reflects
// is its caller's to say. Output is sorted for determinism: inodes in
// ascending number order, as a server's inode table walks. Nothing in it
// shares memory with the image but its names, views of bytes a shard's slab
// never rewrites.
func (m *Image) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		NextIno:  m.nextIno,
		Epoch:    m.epoch,
		PlaceMap: bytes.Clone(m.pmap),
	}
	m.inodes.Range(func(_ uint64, ino *imgInode) bool {
		if ino.nlink <= 0 {
			return true
		}
		snap := InodeSnap{
			Local:  ino.local,
			Ftype:  ino.ftype,
			Mode:   ino.mode,
			Size:   ino.size,
			Nlink:  ino.nlink,
			Dist:   ino.dist,
			Blocks: ino.blocks.Flatten(nil),
		}
		for _, b := range snap.Blocks {
			if chunk, ok := m.chunks[b]; ok {
				snap.Data = append(snap.Data, append([]byte(nil), chunk...))
			} else {
				snap.Data = append(snap.Data, nil)
			}
		}
		c.Inodes = append(c.Inodes, snap)
		return true
	})
	dirIDs := make([]proto.InodeID, 0, len(m.dirs))
	for dir := range m.dirs {
		dirIDs = append(dirIDs, dir)
	}
	slices.SortFunc(dirIDs, inodeCmp)
	for _, dir := range dirIDs {
		ds := DirSnap{Dir: dir}
		for name, ent := range m.dirs[dir].ents {
			ds.Ents = append(ds.Ents, DirEntSnap{
				Name:   name,
				Target: ent.target,
				Ftype:  ent.ftype,
				Dist:   ent.dist,
			})
		}
		slices.SortFunc(ds.Ents, func(a, b DirEntSnap) int { return strings.Compare(a.Name, b.Name) })
		c.Dirs = append(c.Dirs, ds)
	}
	for dir := range m.dead {
		c.DeadDirs = append(c.DeadDirs, dir)
	}
	slices.SortFunc(c.DeadDirs, inodeCmp)
	for dir := range m.marked {
		c.Marked = append(c.Marked, dir)
	}
	slices.SortFunc(c.Marked, inodeCmp)
	return c
}

func inodeCmp(a, b proto.InodeID) int {
	return cmp.Or(cmp.Compare(a.Server, b.Server), cmp.Compare(a.Local, b.Local))
}
