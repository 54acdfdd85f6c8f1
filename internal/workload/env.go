// Package workload implements the paper's benchmark suite (§5.2): the
// microbenchmarks (creates, writes, renames, directories, rm, pfind), the
// application benchmarks (extract, punzip, mailbench, fsstress), and a
// simulated parallel Linux-kernel build. Workloads are written against the
// backend-agnostic fsapi.Client interface and the sched process layer, so
// the same operation stream can be replayed on Hare, on the shared-memory
// ramfs baseline, and on the user-space NFS baseline.
package workload

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fsapi"
	"repro/internal/sched"
	"repro/internal/sim"
)

// FaultInjector is the crash/recovery surface a backend may expose to
// workloads (the Hare backend does when durability is enabled; the
// baselines do not). Workloads that inject faults must quiesce their own
// operations against a server before crashing it.
type FaultInjector interface {
	// NumServers reports how many file servers can be crashed.
	NumServers() int
	// Checkpoint snapshots one server's state and truncates its log.
	Checkpoint(server int) error
	// Crash kills one server; its clients stall until recovery.
	Crash(server int) error
	// Recover rebuilds a crashed server from checkpoint + log replay.
	Recover(server int) error
}

// ElasticController is the online-membership surface a backend may expose
// to workloads (a Hare deployment with MaxServers headroom does; the
// baselines and static deployments do not). Adding or draining a server
// migrates directory-entry shards while the system keeps serving
// (DESIGN.md §9).
type ElasticController interface {
	// AddServer spins up one new file server and rebalances shards onto
	// it, returning the new server's id.
	AddServer() (int, error)
	// RemoveServer drains server id's shards away and removes it from the
	// placement map (its inodes stay put and keep being served).
	RemoveServer(id int) error
	// Epoch returns the current placement epoch.
	Epoch() uint64
	// Members returns the server ids currently owning shards.
	Members() []int
}

// Env is the environment a workload runs in.
type Env struct {
	// Procs creates and places processes on the backend.
	Procs sched.System
	// Cores lists the cores available to application processes.
	Cores []int
	// Counter, when non-nil, records the mix of POSIX operations issued
	// (used to regenerate Figure 5).
	Counter *OpCounter
	// Scale multiplies iteration counts; 1.0 reproduces the default sizes,
	// smaller values keep unit tests fast.
	Scale float64
	// Faults, when non-nil, lets fault-injection workloads crash and
	// recover the backend's file servers.
	Faults FaultInjector
	// Elastic, when non-nil, lets workloads add and drain file servers
	// mid-run. Workloads must tolerate a nil controller by running their
	// operation stream statically (which is what makes the elastic
	// namespace-equivalence tests possible).
	Elastic ElasticController
}

// iters scales an iteration count, returning at least 1.
func (e *Env) iters(n int) int {
	s := e.Scale
	if s <= 0 {
		s = 1.0
	}
	v := int(float64(n) * s)
	if v < 1 {
		v = 1
	}
	return v
}

// workers returns how many worker processes to use (one per core).
func (e *Env) workers() int {
	if len(e.Cores) == 0 {
		return 1
	}
	return len(e.Cores)
}

// fs returns the process's file system client, wrapped with the operation
// counter when one is configured.
func (e *Env) fs(p *sched.Proc) fsapi.Client {
	if e.Counter == nil {
		return p.FS
	}
	return e.Counter.Wrap(p.FS)
}

// Workload is one benchmark.
type Workload interface {
	// Name is the benchmark's name as used in the paper's figures.
	Name() string
	// Placement is the exec placement policy the paper uses for this
	// benchmark (random for build linux and punzip, round-robin else).
	Placement() sched.Policy
	// Setup builds any initial file system state (directory trees, source
	// files); it is excluded from the timed region.
	Setup(env *Env) error
	// Run executes the timed portion and returns the number of operations
	// performed (the unit for throughput).
	Run(env *Env) (int, error)
}

// runRoot starts a root process on the first application core, runs fn in
// it, and waits for it to finish. A non-zero exit status becomes an error.
func runRoot(env *Env, name string, fn sched.ProcFunc) error {
	if len(env.Cores) == 0 {
		return fmt.Errorf("workload %s: no application cores", name)
	}
	h := env.Procs.StartRoot(env.Cores[0], []string{name}, fn)
	if status := h.Wait(); status != 0 {
		return fmt.Errorf("workload %s: root process exited with status %d", name, status)
	}
	return nil
}

// fanOut spawns one worker per entry of n, waits for all of them, and
// reports the first failure. Workers are placed by the process system's
// policy (remote spawn), mirroring how the paper's benchmarks spread worker
// processes across cores via exec.
func fanOut(p *sched.Proc, n int, worker func(wp *sched.Proc, idx int) int) int {
	handles := make([]*sched.Handle, 0, n)
	for i := 0; i < n; i++ {
		idx := i
		h, err := p.Spawn([]string{fmt.Sprintf("worker-%d", idx)}, func(wp *sched.Proc) int {
			return worker(wp, idx)
		}, true)
		if err != nil {
			return 1
		}
		handles = append(handles, h)
	}
	return p.Wait(handles...)
}

// hostCall makes a control-plane call — a membership change, a fault — on
// behalf of process p, which is blocked on it meanwhile: the call is the
// host's, not traffic of p's lane, and leaves p's clock where it was.
func hostCall(p *sched.Proc, call func() error) error {
	var err error
	p.Blocked(func() sim.Cycles {
		err = call()
		return p.Now()
	})
	return err
}

// OpClass buckets POSIX calls for the Figure 5 operation breakdown.
type OpClass int

// Operation classes, in display order.
const (
	ClassOpen OpClass = iota
	ClassClose
	ClassCreate
	ClassRead
	ClassWrite
	ClassStat
	ClassDirList
	ClassMkdir
	ClassRmdir
	ClassUnlink
	ClassRename
	ClassSeek
	ClassPipe
	ClassOther
	numOpClasses
)

var opClassNames = [numOpClasses]string{
	"open", "close", "create", "read", "write", "stat", "readdir",
	"mkdir", "rmdir", "unlink", "rename", "seek", "pipe", "other",
}

// String names the class.
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return "other"
}

// OpClasses lists every class in display order.
func OpClasses() []OpClass {
	out := make([]OpClass, numOpClasses)
	for i := range out {
		out[i] = OpClass(i)
	}
	return out
}

// OpCounter counts POSIX operations by class. It is safe for concurrent use
// by all of a workload's processes.
type OpCounter struct {
	counts [numOpClasses]atomic.Uint64
}

// NewOpCounter returns an empty counter.
func NewOpCounter() *OpCounter { return &OpCounter{} }

// add records one operation.
func (c *OpCounter) add(class OpClass) {
	if c == nil {
		return
	}
	c.counts[class].Add(1)
}

// Reset zeroes every counter.
func (c *OpCounter) Reset() {
	for i := range c.counts {
		c.counts[i].Store(0)
	}
}

// Total returns the total number of operations recorded.
func (c *OpCounter) Total() uint64 {
	var t uint64
	for i := range c.counts {
		t += c.counts[i].Load()
	}
	return t
}

// Count returns the number of operations recorded for one class.
func (c *OpCounter) Count(class OpClass) uint64 { return c.counts[class].Load() }

// Breakdown returns each class's share of the total (0..1).
func (c *OpCounter) Breakdown() map[OpClass]float64 {
	total := c.Total()
	out := make(map[OpClass]float64, numOpClasses)
	if total == 0 {
		return out
	}
	for i := range c.counts {
		if n := c.counts[i].Load(); n > 0 {
			out[OpClass(i)] = float64(n) / float64(total)
		}
	}
	return out
}

// Wrap returns a client that forwards to inner while counting operations.
func (c *OpCounter) Wrap(inner fsapi.Client) fsapi.Client {
	return &countingClient{inner: inner, counter: c}
}

// countingClient decorates an fsapi.Client with operation counting. It also
// forwards the Clocked interface so the process layer still sees virtual
// time, and Forker so fork keeps working (the forked client is wrapped too).
type countingClient struct {
	inner   fsapi.Client
	counter *OpCounter
}

func (c *countingClient) Open(path string, flags int, mode fsapi.Mode) (fsapi.FD, error) {
	if flags&fsapi.OCreate != 0 {
		c.counter.add(ClassCreate)
	} else {
		c.counter.add(ClassOpen)
	}
	return c.inner.Open(path, flags, mode)
}

func (c *countingClient) Close(fd fsapi.FD) error {
	c.counter.add(ClassClose)
	return c.inner.Close(fd)
}

func (c *countingClient) Read(fd fsapi.FD, p []byte) (int, error) {
	c.counter.add(ClassRead)
	return c.inner.Read(fd, p)
}

func (c *countingClient) Write(fd fsapi.FD, p []byte) (int, error) {
	c.counter.add(ClassWrite)
	return c.inner.Write(fd, p)
}

func (c *countingClient) Pread(fd fsapi.FD, p []byte, off int64) (int, error) {
	c.counter.add(ClassRead)
	return c.inner.Pread(fd, p, off)
}

func (c *countingClient) Pwrite(fd fsapi.FD, p []byte, off int64) (int, error) {
	c.counter.add(ClassWrite)
	return c.inner.Pwrite(fd, p, off)
}

func (c *countingClient) Seek(fd fsapi.FD, off int64, whence int) (int64, error) {
	c.counter.add(ClassSeek)
	return c.inner.Seek(fd, off, whence)
}

func (c *countingClient) Fsync(fd fsapi.FD) error {
	c.counter.add(ClassWrite)
	return c.inner.Fsync(fd)
}

func (c *countingClient) Ftruncate(fd fsapi.FD, size int64) error {
	c.counter.add(ClassOther)
	return c.inner.Ftruncate(fd, size)
}

func (c *countingClient) Unlink(path string) error {
	c.counter.add(ClassUnlink)
	return c.inner.Unlink(path)
}

func (c *countingClient) Mkdir(path string, opt fsapi.MkdirOpt) error {
	c.counter.add(ClassMkdir)
	return c.inner.Mkdir(path, opt)
}

func (c *countingClient) Rmdir(path string) error {
	c.counter.add(ClassRmdir)
	return c.inner.Rmdir(path)
}

func (c *countingClient) Rename(oldPath, newPath string) error {
	c.counter.add(ClassRename)
	return c.inner.Rename(oldPath, newPath)
}

func (c *countingClient) ReadDir(path string) ([]fsapi.Dirent, error) {
	c.counter.add(ClassDirList)
	return c.inner.ReadDir(path)
}

func (c *countingClient) Stat(path string) (fsapi.Stat, error) {
	c.counter.add(ClassStat)
	return c.inner.Stat(path)
}

func (c *countingClient) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	c.counter.add(ClassStat)
	return c.inner.Fstat(fd)
}

func (c *countingClient) Pipe() (fsapi.FD, fsapi.FD, error) {
	c.counter.add(ClassPipe)
	return c.inner.Pipe()
}

func (c *countingClient) Dup(fd fsapi.FD) (fsapi.FD, error) {
	c.counter.add(ClassOther)
	return c.inner.Dup(fd)
}

func (c *countingClient) Chdir(path string) error {
	c.counter.add(ClassOther)
	return c.inner.Chdir(path)
}

func (c *countingClient) Getcwd() string { return c.inner.Getcwd() }

// Clock, AdvanceClock and Compute forward virtual time to the inner client.
func (c *countingClient) Clock() sim.Cycles {
	if ck, ok := c.inner.(sched.Clocked); ok {
		return ck.Clock()
	}
	return 0
}

// AdvanceClock forwards to the inner client.
func (c *countingClient) AdvanceClock(t sim.Cycles) {
	if ck, ok := c.inner.(sched.Clocked); ok {
		ck.AdvanceClock(t)
	}
}

// Compute forwards to the inner client.
func (c *countingClient) Compute(d sim.Cycles) {
	if ck, ok := c.inner.(sched.Clocked); ok {
		ck.Compute(d)
	}
}

// xorshift is a small deterministic PRNG used by fsstress and the synthetic
// data generators (results must be reproducible across runs).
type xorshift struct{ state uint64 }

func newRand(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x2545F4914F6CDD1D
	}
	return &xorshift{state: seed}
}

func (x *xorshift) next() uint64 {
	x.state ^= x.state << 13
	x.state ^= x.state >> 7
	x.state ^= x.state << 17
	return x.state
}

// intn returns a value in [0, n).
func (x *xorshift) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(x.next() % uint64(n))
}

// fillPattern fills buf with a deterministic pattern derived from seed.
func fillPattern(buf []byte, seed uint64) {
	r := newRand(seed)
	for i := range buf {
		buf[i] = byte(r.next())
	}
}
