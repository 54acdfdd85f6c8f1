// Package unfs implements the user-space NFS baseline from the paper's
// evaluation (UNFS3 in Figure 8): a single user-space file server reached
// through the kernel's loopback interface.
//
// Functionally it is an ordinary in-memory file system (it reuses the ramfs
// tree as its backing store); what distinguishes it is the cost structure —
// every operation pays a loopback RPC and serializes at the single server —
// and the missing functionality: file descriptors cannot be shared between
// client processes, so applications that rely on shared descriptors are
// limited to one core (§1, §2.2).
package unfs

import (
	"sync"

	"repro/internal/baseline/ramfs"
	"repro/internal/fsapi"
	"repro/internal/sim"
)

// System is one user-space NFS server plus the machine model used for cost
// accounting.
type System struct {
	machine *sim.Machine
	backing *ramfs.FS

	srvMu   sync.Mutex
	srvFree sim.Cycles
}

// New creates the NFS baseline over the given machine model.
func New(machine *sim.Machine) *System {
	// The backing store is a private ramfs whose own costs are zeroed; all
	// time accounting happens in this package.
	zero := machine.Cost
	zero.RamfsOp = 0
	zero.RamfsLockOp = 0
	zero.RamfsPerLine = 0
	zero.ServePerEnt = 0
	backingMachine := sim.NewMachine(machine.Topo, zero)
	backing := ramfs.New(backingMachine)
	backing.DataCosts = false
	return &System{machine: machine, backing: backing}
}

// Machine returns the machine model used for cost accounting.
func (s *System) Machine() *sim.Machine { return s.machine }

// serve serializes a request at the single NFS server: the request is ready
// at `ready`, takes `hold` cycles of server CPU, and completes when the
// server gets to it.
func (s *System) serve(ready, hold sim.Cycles) sim.Cycles {
	s.srvMu.Lock()
	defer s.srvMu.Unlock()
	start := ready
	if s.srvFree > start {
		start = s.srvFree
	}
	end := start + hold
	s.srvFree = end
	return end
}

// Client is one process's NFS mount. It implements fsapi.Client and the
// process layer's Clocked interface. It does NOT implement fsapi.Forker:
// NFS clients cannot share descriptors.
type Client struct {
	sys   *System
	core  int
	clock sim.Clock
	inner fsapi.Client
	// pipes tracks which descriptors are local pipe ends: pipe traffic
	// stays in the local kernel and is not charged NFS loopback costs.
	pipes map[fsapi.FD]bool
}

// NewClient attaches a process on the given core.
func (s *System) NewClient(core int) *Client {
	return &Client{sys: s, core: core, inner: s.backing.NewClient(core), pipes: make(map[fsapi.FD]bool)}
}

// Clock returns the client's virtual time.
func (c *Client) Clock() sim.Cycles { return c.clock.Now() }

// AdvanceClock moves the client's virtual clock forward.
func (c *Client) AdvanceClock(t sim.Cycles) { c.clock.AdvanceTo(t) }

// Compute charges CPU work on the client's core.
func (c *Client) Compute(d sim.Cycles) {
	end := c.sys.machine.Execute(c.core, c.clock.Now(), d)
	c.clock.AdvanceTo(end)
}

// Core returns the client's core.
func (c *Client) Core() int { return c.core }

// rpc charges one NFS round trip: loopback transport on the client core,
// then serialized service at the single server, plus optional data bytes.
func (c *Client) rpc(dataBytes int) {
	cost := &c.sys.machine.Cost
	end := c.sys.machine.Execute(c.core, c.clock.Now(), cost.LoopbackRPC)
	c.clock.AdvanceTo(end)
	hold := cost.UnfsServeOp + sim.LineCost(cost.UnfsPerLine, dataBytes)
	c.clock.AdvanceTo(c.sys.serve(c.clock.Now(), hold))
}

// local charges a purely client-side operation (pipes, dup, chdir), which do
// not involve the NFS server.
func (c *Client) local() {
	end := c.sys.machine.Execute(c.core, c.clock.Now(), c.sys.machine.Cost.RamfsOp)
	c.clock.AdvanceTo(end)
}

// Open implements fsapi.Client.
func (c *Client) Open(path string, flags int, mode fsapi.Mode) (fsapi.FD, error) {
	c.rpc(0)
	return c.inner.Open(path, flags, mode)
}

// Close implements fsapi.Client.
func (c *Client) Close(fd fsapi.FD) error {
	if c.pipes[fd] {
		delete(c.pipes, fd)
		c.local()
		return c.inner.Close(fd)
	}
	c.rpc(0)
	return c.inner.Close(fd)
}

// Read implements fsapi.Client; file data travels over the loopback RPC,
// pipe data stays in the local kernel.
func (c *Client) Read(fd fsapi.FD, p []byte) (int, error) {
	if c.pipes[fd] {
		n, err := c.inner.Read(fd, p)
		c.local()
		return n, err
	}
	n, err := c.inner.Read(fd, p)
	c.rpc(n)
	return n, err
}

// Write implements fsapi.Client.
func (c *Client) Write(fd fsapi.FD, p []byte) (int, error) {
	if c.pipes[fd] {
		c.local()
		return c.inner.Write(fd, p)
	}
	c.rpc(len(p))
	return c.inner.Write(fd, p)
}

// Pread implements fsapi.Client.
func (c *Client) Pread(fd fsapi.FD, p []byte, off int64) (int, error) {
	n, err := c.inner.Pread(fd, p, off)
	c.rpc(n)
	return n, err
}

// Pwrite implements fsapi.Client.
func (c *Client) Pwrite(fd fsapi.FD, p []byte, off int64) (int, error) {
	c.rpc(len(p))
	return c.inner.Pwrite(fd, p, off)
}

// Seek is a client-side operation in NFS.
func (c *Client) Seek(fd fsapi.FD, off int64, whence int) (int64, error) {
	c.local()
	return c.inner.Seek(fd, off, whence)
}

// Fsync implements fsapi.Client (a COMMIT RPC).
func (c *Client) Fsync(fd fsapi.FD) error {
	c.rpc(0)
	return c.inner.Fsync(fd)
}

// Ftruncate implements fsapi.Client (a SETATTR RPC).
func (c *Client) Ftruncate(fd fsapi.FD, size int64) error {
	c.rpc(0)
	return c.inner.Ftruncate(fd, size)
}

// Unlink implements fsapi.Client.
func (c *Client) Unlink(path string) error {
	c.rpc(0)
	return c.inner.Unlink(path)
}

// Mkdir implements fsapi.Client.
func (c *Client) Mkdir(path string, opt fsapi.MkdirOpt) error {
	c.rpc(0)
	return c.inner.Mkdir(path, opt)
}

// Rmdir implements fsapi.Client.
func (c *Client) Rmdir(path string) error {
	c.rpc(0)
	return c.inner.Rmdir(path)
}

// Rename implements fsapi.Client.
func (c *Client) Rename(oldPath, newPath string) error {
	c.rpc(0)
	return c.inner.Rename(oldPath, newPath)
}

// ReadDir implements fsapi.Client; directory entries travel over the RPC.
func (c *Client) ReadDir(path string) ([]fsapi.Dirent, error) {
	ents, err := c.inner.ReadDir(path)
	c.rpc(len(ents) * 32)
	return ents, err
}

// Stat implements fsapi.Client (a GETATTR/LOOKUP RPC).
func (c *Client) Stat(path string) (fsapi.Stat, error) {
	c.rpc(0)
	return c.inner.Stat(path)
}

// Fstat implements fsapi.Client.
func (c *Client) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	c.rpc(0)
	return c.inner.Fstat(fd)
}

// Pipe implements fsapi.Client. Pipes are provided by the local kernel, not
// by NFS, so they carry only local cost — but they cannot be shared with a
// process on another NFS client.
func (c *Client) Pipe() (fsapi.FD, fsapi.FD, error) {
	c.local()
	r, w, err := c.inner.Pipe()
	if err == nil {
		c.pipes[r] = true
		c.pipes[w] = true
	}
	return r, w, err
}

// Dup implements fsapi.Client.
func (c *Client) Dup(fd fsapi.FD) (fsapi.FD, error) {
	c.local()
	nfd, err := c.inner.Dup(fd)
	if err == nil && c.pipes[fd] {
		c.pipes[nfd] = true
	}
	return nfd, err
}

// Chdir implements fsapi.Client.
func (c *Client) Chdir(path string) error {
	c.rpc(0)
	return c.inner.Chdir(path)
}

// Getcwd implements fsapi.Client.
func (c *Client) Getcwd() string { return c.inner.Getcwd() }

// CloneForFork implements fsapi.Forker. Processes forked on the same
// machine share open-file descriptions through their common kernel (pipes
// included), even when the files live on NFS; what NFS cannot do — and what
// limits these applications to a single core in the paper's comparison — is
// share descriptors between *different* NFS client instances. The child
// therefore wraps a fork of the same local kernel state.
func (c *Client) CloneForFork(childCore int) (fsapi.Client, error) {
	forker, ok := c.inner.(fsapi.Forker)
	if !ok {
		return nil, fsapi.ENOSYS
	}
	innerChild, err := forker.CloneForFork(childCore)
	if err != nil {
		return nil, err
	}
	child := &Client{sys: c.sys, core: childCore, inner: innerChild, pipes: make(map[fsapi.FD]bool)}
	for fd := range c.pipes {
		child.pipes[fd] = true
	}
	child.clock.AdvanceTo(c.clock.Now())
	return child, nil
}

// CloseAll closes all open descriptors (process exit).
func (c *Client) CloseAll() {
	type closer interface{ CloseAll() }
	if cl, ok := c.inner.(closer); ok {
		cl.CloseAll()
	}
}
