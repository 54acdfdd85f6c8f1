package ramfs

import (
	"sort"
	"sync"

	"repro/internal/fsapi"
	"repro/internal/sim"
)

// Client is one process's view of the shared ramfs. It implements
// fsapi.Client plus the Clocked interface used by the process layer.
type Client struct {
	fs    *FS
	core  int
	clock sim.Clock
	cwd   string

	fds    map[fsapi.FD]*openFile
	nextFD fsapi.FD
}

// openFile is a shared open-file description (offsets are shared across
// fork, exactly as on a cache-coherent kernel).
type openFile struct {
	mu     sync.Mutex
	node   *node
	flags  int
	offset int64
	refs   int

	pipe      bool
	pipeWrite bool
}

// NewClient attaches a new process to the file system on the given core.
func (fs *FS) NewClient(core int) *Client {
	return &Client{
		fs:     fs,
		core:   core,
		cwd:    "/",
		fds:    make(map[fsapi.FD]*openFile),
		nextFD: 3,
	}
}

// Clock returns the client's virtual time.
func (c *Client) Clock() sim.Cycles { return c.clock.Now() }

// AdvanceClock moves the client's virtual clock forward.
func (c *Client) AdvanceClock(t sim.Cycles) { c.clock.AdvanceTo(t) }

// Compute charges CPU work on the client's core.
func (c *Client) Compute(d sim.Cycles) {
	end := c.fs.machine.Execute(c.core, c.clock.Now(), d)
	c.clock.AdvanceTo(end)
}

// Core returns the core this client runs on.
func (c *Client) Core() int { return c.core }

// charge accounts local CPU time.
func (c *Client) charge(d sim.Cycles) {
	end := c.fs.machine.Execute(c.core, c.clock.Now(), d)
	c.clock.AdvanceTo(end)
}

// op charges the fixed per-syscall cost of the shared-memory file system.
func (c *Client) op() { c.charge(c.fs.machine.Cost.RamfsOp) }

// dirCritical charges the serialized critical section of a directory
// operation on the given directory node.
func (c *Client) dirCritical(dir *node) {
	end := dir.lockRes.acquire(c.clock.Now(), c.fs.machine.Cost.RamfsLockOp)
	c.clock.AdvanceTo(end)
}

// dataCost charges the per-byte cost of copying file data.
func (c *Client) dataCost(n int) {
	if !c.fs.DataCosts {
		return
	}
	c.charge(sim.LineCost(c.fs.machine.Cost.RamfsPerLine, n))
}

func (c *Client) absPath(path string) string { return fsapi.AbsPath(c.cwd, path) }

func (c *Client) allocFD(of *openFile) fsapi.FD {
	fd := c.nextFD
	for {
		if _, used := c.fds[fd]; !used {
			break
		}
		fd++
	}
	c.nextFD = fd + 1
	of.mu.Lock()
	of.refs++
	of.mu.Unlock()
	c.fds[fd] = of
	return fd
}

func (c *Client) getFD(fd fsapi.FD) (*openFile, error) {
	of, ok := c.fds[fd]
	if !ok {
		return nil, fsapi.EBADF
	}
	return of, nil
}

// Open implements fsapi.Client.
func (c *Client) Open(path string, flags int, mode fsapi.Mode) (fsapi.FD, error) {
	c.op()
	abs := c.absPath(path)
	var n *node
	if flags&fsapi.OCreate != 0 {
		parent, name, err := c.fs.lookupParent(abs)
		if err != nil {
			return -1, err
		}
		c.dirCritical(parent)
		parent.mu.Lock()
		existing, ok := parent.children[name]
		if ok {
			parent.mu.Unlock()
			if flags&fsapi.OExcl != 0 {
				return -1, fsapi.EEXIST
			}
			n = existing
		} else {
			n = c.fs.newNode(fsapi.TypeRegular, mode)
			parent.children[name] = n
			parent.mu.Unlock()
		}
	} else {
		var err error
		n, err = c.fs.lookup(abs)
		if err != nil {
			return -1, err
		}
	}
	if n.ftype == fsapi.TypeDir && flags&fsapi.OAccMode != fsapi.ORdOnly {
		return -1, fsapi.EISDIR
	}
	if err := checkPerm(n, flags); err != nil {
		return -1, err
	}
	n.mu.Lock()
	n.openRefs++
	if flags&fsapi.OTrunc != 0 && n.ftype == fsapi.TypeRegular {
		n.data = n.data[:0]
	}
	size := int64(len(n.data))
	n.mu.Unlock()
	of := &openFile{node: n, flags: flags}
	if flags&fsapi.OAppend != 0 {
		of.offset = size
	}
	return c.allocFD(of), nil
}

func checkPerm(n *node, flags int) error {
	owner := n.mode.OwnerBits()
	acc := flags & fsapi.OAccMode
	if (acc == fsapi.ORdOnly || acc == fsapi.ORdWr) && owner&fsapi.ModeRead == 0 {
		return fsapi.EACCES
	}
	if (acc == fsapi.OWrOnly || acc == fsapi.ORdWr) && owner&fsapi.ModeWrite == 0 {
		return fsapi.EACCES
	}
	return nil
}

// Close implements fsapi.Client.
func (c *Client) Close(fd fsapi.FD) error {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return err
	}
	delete(c.fds, fd)
	of.mu.Lock()
	of.refs--
	last := of.refs == 0
	of.mu.Unlock()
	if !last {
		return nil
	}
	if of.pipe {
		of.node.pipe.closeEnd(of.pipeWrite)
		return nil
	}
	of.node.mu.Lock()
	if of.node.openRefs > 0 {
		of.node.openRefs--
	}
	of.node.mu.Unlock()
	return nil
}

// Read implements fsapi.Client.
func (c *Client) Read(fd fsapi.FD, p []byte) (int, error) {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe {
		if of.pipeWrite {
			return 0, fsapi.EBADF
		}
		n, at := of.node.pipe.read(p, c.clock.Now())
		c.clock.AdvanceTo(at)
		c.dataCost(n)
		return n, nil
	}
	if of.flags&fsapi.OAccMode == fsapi.OWrOnly {
		return 0, fsapi.EBADF
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	n := c.readNode(of.node, of.offset, p)
	of.offset += int64(n)
	return n, nil
}

// Pread implements fsapi.Client.
func (c *Client) Pread(fd fsapi.FD, p []byte, off int64) (int, error) {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe {
		return 0, fsapi.ESPIPE
	}
	return c.readNode(of.node, off, p), nil
}

func (c *Client) readNode(n *node, off int64, p []byte) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if off >= int64(len(n.data)) {
		return 0
	}
	cnt := copy(p, n.data[off:])
	c.dataCost(cnt)
	return cnt
}

// Write implements fsapi.Client.
func (c *Client) Write(fd fsapi.FD, p []byte) (int, error) {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe {
		if !of.pipeWrite {
			return 0, fsapi.EBADF
		}
		n, at, werr := of.node.pipe.write(p, c.clock.Now())
		c.clock.AdvanceTo(at)
		c.dataCost(n)
		return n, werr
	}
	if of.flags&fsapi.OAccMode == fsapi.ORdOnly {
		return 0, fsapi.EBADF
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	off := of.offset
	if of.flags&fsapi.OAppend != 0 {
		of.node.mu.Lock()
		off = int64(len(of.node.data))
		of.node.mu.Unlock()
	}
	n := c.writeNode(of.node, off, p)
	of.offset = off + int64(n)
	return n, nil
}

// Pwrite implements fsapi.Client.
func (c *Client) Pwrite(fd fsapi.FD, p []byte, off int64) (int, error) {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe {
		return 0, fsapi.ESPIPE
	}
	return c.writeNode(of.node, off, p), nil
}

func (c *Client) writeNode(n *node, off int64, p []byte) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	end := off + int64(len(p))
	if int64(len(n.data)) < end {
		grown := make([]byte, end)
		copy(grown, n.data)
		n.data = grown
	}
	cnt := copy(n.data[off:], p)
	c.dataCost(cnt)
	return cnt
}

// Seek implements fsapi.Client.
func (c *Client) Seek(fd fsapi.FD, off int64, whence int) (int64, error) {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe {
		return 0, fsapi.ESPIPE
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	var base int64
	switch whence {
	case fsapi.SeekSet:
		base = 0
	case fsapi.SeekCur:
		base = of.offset
	case fsapi.SeekEnd:
		of.node.mu.Lock()
		base = int64(len(of.node.data))
		of.node.mu.Unlock()
	default:
		return 0, fsapi.EINVAL
	}
	pos := base + off
	if pos < 0 {
		return 0, fsapi.EINVAL
	}
	of.offset = pos
	return pos, nil
}

// Fsync is a no-op for an in-memory coherent file system.
func (c *Client) Fsync(fd fsapi.FD) error {
	c.op()
	_, err := c.getFD(fd)
	return err
}

// Ftruncate implements fsapi.Client.
func (c *Client) Ftruncate(fd fsapi.FD, size int64) error {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return err
	}
	if of.pipe || of.node.ftype != fsapi.TypeRegular {
		return fsapi.EINVAL
	}
	of.node.mu.Lock()
	defer of.node.mu.Unlock()
	if size < int64(len(of.node.data)) {
		of.node.data = of.node.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, of.node.data)
		of.node.data = grown
	}
	return nil
}

// Unlink implements fsapi.Client.
func (c *Client) Unlink(path string) error {
	c.op()
	parent, name, err := c.fs.lookupParent(c.absPath(path))
	if err != nil {
		return err
	}
	c.dirCritical(parent)
	parent.mu.Lock()
	defer parent.mu.Unlock()
	n, ok := parent.children[name]
	if !ok {
		return fsapi.ENOENT
	}
	if n.ftype == fsapi.TypeDir {
		return fsapi.EISDIR
	}
	delete(parent.children, name)
	n.mu.Lock()
	n.nlink--
	n.mu.Unlock()
	return nil
}

// Mkdir implements fsapi.Client (the Distributed option is meaningless on a
// centralized shared-memory file system and is ignored).
func (c *Client) Mkdir(path string, opt fsapi.MkdirOpt) error {
	c.op()
	parent, name, err := c.fs.lookupParent(c.absPath(path))
	if err != nil {
		return err
	}
	mode := opt.Mode
	if mode == 0 {
		mode = fsapi.Mode755
	}
	c.dirCritical(parent)
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if parent.ftype != fsapi.TypeDir {
		return fsapi.ENOTDIR
	}
	if _, ok := parent.children[name]; ok {
		return fsapi.EEXIST
	}
	parent.children[name] = c.fs.newNode(fsapi.TypeDir, mode)
	return nil
}

// Rmdir implements fsapi.Client.
func (c *Client) Rmdir(path string) error {
	c.op()
	parent, name, err := c.fs.lookupParent(c.absPath(path))
	if err != nil {
		return err
	}
	c.dirCritical(parent)
	parent.mu.Lock()
	defer parent.mu.Unlock()
	n, ok := parent.children[name]
	if !ok {
		return fsapi.ENOENT
	}
	if n.ftype != fsapi.TypeDir {
		return fsapi.ENOTDIR
	}
	n.mu.Lock()
	empty := len(n.children) == 0
	n.mu.Unlock()
	if !empty {
		return fsapi.ENOTEMPTY
	}
	delete(parent.children, name)
	return nil
}

// Rename implements fsapi.Client.
func (c *Client) Rename(oldPath, newPath string) error {
	c.op()
	oldAbs, newAbs := c.absPath(oldPath), c.absPath(newPath)
	if oldAbs == newAbs {
		return nil
	}
	oldParent, oldName, err := c.fs.lookupParent(oldAbs)
	if err != nil {
		return err
	}
	newParent, newName, err := c.fs.lookupParent(newAbs)
	if err != nil {
		return err
	}
	c.dirCritical(oldParent)
	if newParent != oldParent {
		c.dirCritical(newParent)
	}
	// Lock ordering by inode number avoids deadlock between concurrent
	// renames in opposite directions.
	first, second := oldParent, newParent
	if first != second && first.ino > second.ino {
		first, second = second, first
	}
	first.mu.Lock()
	if second != first {
		second.mu.Lock()
	}
	defer func() {
		if second != first {
			second.mu.Unlock()
		}
		first.mu.Unlock()
	}()
	n, ok := oldParent.children[oldName]
	if !ok {
		return fsapi.ENOENT
	}
	delete(oldParent.children, oldName)
	newParent.children[newName] = n
	return nil
}

// ReadDir implements fsapi.Client.
func (c *Client) ReadDir(path string) ([]fsapi.Dirent, error) {
	c.op()
	n, err := c.fs.lookup(c.absPath(path))
	if err != nil {
		return nil, err
	}
	if n.ftype != fsapi.TypeDir {
		return nil, fsapi.ENOTDIR
	}
	n.mu.Lock()
	out := make([]fsapi.Dirent, 0, len(n.children))
	for name, child := range n.children {
		out = append(out, fsapi.Dirent{Name: name, Ino: child.ino, Type: child.ftype})
	}
	n.mu.Unlock()
	c.charge(sim.Cycles(len(out)) * c.fs.machine.Cost.ServePerEnt)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stat implements fsapi.Client.
func (c *Client) Stat(path string) (fsapi.Stat, error) {
	c.op()
	n, err := c.fs.lookup(c.absPath(path))
	if err != nil {
		return fsapi.Stat{}, err
	}
	return statOf(n), nil
}

// Fstat implements fsapi.Client.
func (c *Client) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return statOf(of.node), nil
}

func statOf(n *node) fsapi.Stat {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fsapi.Stat{
		Ino:   n.ino,
		Type:  n.ftype,
		Size:  int64(len(n.data)),
		Nlink: n.nlink,
		Mode:  n.mode,
	}
}

// Pipe implements fsapi.Client.
func (c *Client) Pipe() (fsapi.FD, fsapi.FD, error) {
	c.op()
	n := c.fs.newNode(fsapi.TypePipe, 0o600)
	rfd := c.allocFD(&openFile{node: n, pipe: true, flags: fsapi.ORdOnly})
	wfd := c.allocFD(&openFile{node: n, pipe: true, pipeWrite: true, flags: fsapi.OWrOnly})
	return rfd, wfd, nil
}

// Dup implements fsapi.Client.
func (c *Client) Dup(fd fsapi.FD) (fsapi.FD, error) {
	c.op()
	of, err := c.getFD(fd)
	if err != nil {
		return -1, err
	}
	return c.allocFD(of), nil
}

// Chdir implements fsapi.Client.
func (c *Client) Chdir(path string) error {
	c.op()
	abs := c.absPath(path)
	n, err := c.fs.lookup(abs)
	if err != nil {
		return err
	}
	if n.ftype != fsapi.TypeDir {
		return fsapi.ENOTDIR
	}
	c.cwd = abs
	return nil
}

// Getcwd implements fsapi.Client.
func (c *Client) Getcwd() string { return c.cwd }

// CloneForFork implements fsapi.Forker: the child shares every open-file
// description (offsets included) through shared memory, exactly as a
// cache-coherent kernel would.
func (c *Client) CloneForFork(childCore int) (fsapi.Client, error) {
	child := c.fs.NewClient(childCore)
	child.cwd = c.cwd
	child.clock.AdvanceTo(c.clock.Now())
	for fd, of := range c.fds {
		// The child references the same open-file description; the
		// description (and, for pipes, the pipe end) closes only when the
		// last referencing descriptor in any process is closed.
		of.mu.Lock()
		of.refs++
		of.mu.Unlock()
		child.fds[fd] = of
		if fd >= child.nextFD {
			child.nextFD = fd + 1
		}
	}
	return child, nil
}

// CloseAll closes every open descriptor (process exit).
func (c *Client) CloseAll() {
	for fd := range c.fds {
		_ = c.Close(fd)
	}
}
