// Package ramfs implements the cache-coherent shared-memory baseline file
// system used for comparison in the paper's evaluation (Linux ramfs/tmpfs in
// Figures 8 and 15).
//
// It is a conventional in-memory file system: one shared tree of inodes
// protected by per-inode locks, shared open-file descriptions, and no
// message passing. Virtual time is charged per operation from the cost
// model's Ramfs* entries, and directory-modifying operations serialize on a
// per-directory lock resource — which is exactly the contention point that
// limits Linux's scalability on create-heavy shared directories (§5.5).
//
// This baseline requires cache-coherent shared memory and therefore could
// not run on Hare's target hardware; it exists to answer the paper's last
// evaluation question (what does Hare give up versus a traditional CC-SMP
// file system?).
package ramfs

import (
	"sync"
	"sync/atomic"

	"repro/internal/fsapi"
	"repro/internal/sim"
)

// FS is the shared file system state (the "kernel" side).
type FS struct {
	machine *sim.Machine
	root    *node
	nextIno atomic.Uint64

	// DataCosts disables per-byte data-copy charging when false (used when
	// the NFS baseline reuses this tree as its backing store and charges
	// its own transfer costs).
	DataCosts bool
}

// node is one inode in the shared tree.
type node struct {
	ino   uint64
	ftype fsapi.FileType
	mode  fsapi.Mode

	mu       sync.Mutex
	lockRes  lockResource
	children map[string]*node
	data     []byte
	nlink    int
	openRefs int

	pipe *pipeBuf
}

// lockResource models the virtual-time serialization of a kernel lock: a
// request that is ready at time r and holds the lock for h cycles completes
// at max(r, lastRelease) + h.
type lockResource struct {
	mu   sync.Mutex
	free sim.Cycles
}

// acquire reserves the lock for hold cycles starting no earlier than ready
// and returns the completion (release) time.
func (l *lockResource) acquire(ready, hold sim.Cycles) sim.Cycles {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := ready
	if l.free > start {
		start = l.free
	}
	end := start + hold
	l.free = end
	return end
}

// New creates an empty ramfs over the given machine model.
func New(machine *sim.Machine) *FS {
	fs := &FS{machine: machine, DataCosts: true}
	fs.nextIno.Store(2)
	fs.root = &node{
		ino:      1,
		ftype:    fsapi.TypeDir,
		mode:     fsapi.Mode755,
		children: make(map[string]*node),
		nlink:    1,
	}
	return fs
}

// Machine returns the machine model the file system charges time against.
func (fs *FS) Machine() *sim.Machine { return fs.machine }

func (fs *FS) allocIno() uint64 { return fs.nextIno.Add(1) - 1 }

// newNode creates a detached node of the given type.
func (fs *FS) newNode(ftype fsapi.FileType, mode fsapi.Mode) *node {
	n := &node{ino: fs.allocIno(), ftype: ftype, mode: mode, nlink: 1}
	if ftype == fsapi.TypeDir {
		n.children = make(map[string]*node)
	}
	if ftype == fsapi.TypePipe {
		n.pipe = newPipeBuf()
	}
	return n
}

// lookup walks an absolute path and returns the node, or ENOENT/ENOTDIR.
func (fs *FS) lookup(abs string) (*node, error) {
	cur := fs.root
	for comp, rest := fsapi.NextComponent(abs); comp != ""; comp, rest = fsapi.NextComponent(rest) {
		if cur.ftype != fsapi.TypeDir {
			return nil, fsapi.ENOTDIR
		}
		cur.mu.Lock()
		next, ok := cur.children[comp]
		cur.mu.Unlock()
		if !ok {
			return nil, fsapi.ENOENT
		}
		cur = next
	}
	return cur, nil
}

// lookupParent returns the parent directory node and final component name.
func (fs *FS) lookupParent(abs string) (*node, string, error) {
	dir, base := fsapi.SplitDirBase(abs)
	if base == "." || !fsapi.ValidName(base) {
		return nil, "", fsapi.EINVAL
	}
	parent, err := fs.lookup(dir)
	if err != nil {
		return nil, "", err
	}
	if parent.ftype != fsapi.TypeDir {
		return nil, "", fsapi.ENOTDIR
	}
	return parent, base, nil
}

// pipeBuf is a classic bounded pipe buffer with condition variables; virtual
// wake-up times are propagated through lastActivity.
type pipeBuf struct {
	mu           sync.Mutex
	cond         *sync.Cond
	buf          []byte
	readers      int
	writers      int
	lastActivity sim.Cycles
}

const pipeCapacity = 64 * 1024

func newPipeBuf() *pipeBuf {
	p := &pipeBuf{readers: 1, writers: 1}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// write appends data (blocking while full), returning bytes written and the
// virtual time at which the write completed.
func (p *pipeBuf) write(data []byte, now sim.Cycles) (int, sim.Cycles, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	written := 0
	for written < len(data) {
		if p.readers == 0 {
			p.cond.Broadcast()
			if written > 0 {
				return written, maxCycles(now, p.lastActivity), nil
			}
			return 0, maxCycles(now, p.lastActivity), fsapi.EPIPE
		}
		space := pipeCapacity - len(p.buf)
		if space == 0 {
			p.cond.Wait()
			continue
		}
		n := len(data) - written
		if n > space {
			n = space
		}
		p.buf = append(p.buf, data[written:written+n]...)
		written += n
		if p.lastActivity < now {
			p.lastActivity = now
		}
		p.cond.Broadcast()
	}
	return written, maxCycles(now, p.lastActivity), nil
}

// read removes up to len(dst) bytes (blocking while empty and writers
// remain), returning bytes read and the virtual completion time.
func (p *pipeBuf) read(dst []byte, now sim.Cycles) (int, sim.Cycles) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 {
		if p.writers == 0 {
			return 0, maxCycles(now, p.lastActivity)
		}
		p.cond.Wait()
	}
	n := copy(dst, p.buf)
	p.buf = p.buf[n:]
	if p.lastActivity < now {
		p.lastActivity = now
	}
	p.cond.Broadcast()
	return n, maxCycles(now, p.lastActivity)
}

func (p *pipeBuf) closeEnd(write bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if write {
		if p.writers > 0 {
			p.writers--
		}
	} else {
		if p.readers > 0 {
			p.readers--
		}
	}
	p.cond.Broadcast()
}

func maxCycles(a, b sim.Cycles) sim.Cycles {
	if a > b {
		return a
	}
	return b
}
