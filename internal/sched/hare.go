package sched

import (
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
)

// HareConfig wires the Hare process system: one scheduling server per
// application core, a placement policy, and a factory for client libraries.
type HareConfig struct {
	Machine  *sim.Machine
	Network  *msg.Network
	AppCores []int
	Policy   Policy
	Seed     uint64

	// NewClient builds a fresh Hare client library pinned to a core; the
	// scheduling server uses it to construct the client for an exec'd
	// process.
	NewClient func(core int) *client.Client
}

// HareSystem implements the System interface using Hare's remote execution
// protocol: Spawn with remote placement forks locally and then sends an exec
// RPC to the chosen core's scheduling server; the forked child becomes a
// proxy that waits for the remote process to exit and relays its status
// (§3.5).
type HareSystem struct {
	cfg     HareConfig
	placer  *placer
	pids    pidAllocator
	ends    endTracker
	servers map[int]*schedServer

	progMu   sync.Mutex
	programs map[string]ProcFunc
	progSeq  uint64

	procMu sync.Mutex
	procs  map[int64]*Proc
}

// schedServer is the per-core scheduling server: it listens for exec RPCs,
// spawns the requested process locally, waits for it to exit, and replies to
// the proxy with the exit status.
type schedServer struct {
	core  int
	ep    *msg.Endpoint
	clock sim.Clock
	sys   *HareSystem
	done  chan struct{}
}

// NewHareSystem creates the process system and its scheduling servers (not
// yet started).
func NewHareSystem(cfg HareConfig) *HareSystem {
	sys := &HareSystem{
		cfg:      cfg,
		placer:   newPlacer(cfg.Policy, cfg.AppCores, cfg.Seed),
		servers:  make(map[int]*schedServer),
		programs: make(map[string]ProcFunc),
		procs:    make(map[int64]*Proc),
	}
	for _, core := range cfg.AppCores {
		sys.servers[core] = &schedServer{
			core: core,
			ep:   cfg.Network.NewEndpoint(core),
			sys:  sys,
			done: make(chan struct{}),
		}
	}
	return sys
}

// Start launches every scheduling server.
func (sys *HareSystem) Start() {
	for _, s := range sys.servers {
		go s.run()
	}
}

// Stop shuts the scheduling servers down. Callers stop the system only after
// every process has exited.
func (sys *HareSystem) Stop() {
	for _, s := range sys.servers {
		s.ep.Inbox.Close()
		<-s.done
	}
}

// MaxEndTime returns the latest process completion time seen so far.
func (sys *HareSystem) MaxEndTime() sim.Cycles { return sys.ends.maxEnd() }

// StartRoot launches an initial process on the given core. The process's
// virtual clock starts at the latest completion time observed so far, so a
// sequence of root processes (setup phase, then the timed run) composes
// sensibly in virtual time.
func (sys *HareSystem) StartRoot(core int, args []string, fn ProcFunc) *Handle {
	cli := sys.cfg.NewClient(core)
	cli.AdvanceClock(sys.ends.maxEnd())
	// Join the root's lane before it runs: under the parallel engine a lane
	// must be tracked before any other lane's frontier can pass its start
	// time (the caller starts roots while the system is quiescent).
	sys.cfg.Network.GateJoin(cli.EndpointID(), cli.Clock())
	proc := &Proc{PID: sys.pids.alloc(), Args: args, FS: cli, core: core, sys: sys}
	handle := newHandle(proc.PID)
	sys.trackProc(proc)
	go func() {
		status := fn(proc)
		cli.CloseAll()
		end := cli.Clock()
		sys.ends.record(end)
		sys.untrackProc(proc)
		sys.cfg.Network.GateIdle(cli.EndpointID())
		handle.finish(status, end)
	}()
	return handle
}

// Spawn implements fork (remote=false) and fork+exec with remote placement
// (remote=true).
func (sys *HareSystem) Spawn(parent *Proc, args []string, fn ProcFunc, remote bool) (*Handle, error) {
	parentCli, ok := parent.FS.(*client.Client)
	if !ok {
		return nil, fmt.Errorf("sched: HareSystem requires Hare clients, got %T", parent.FS)
	}
	forked, err := parentCli.CloneForFork(parent.core)
	if err != nil {
		return nil, err
	}
	childCli := forked.(*client.Client)
	pid := sys.pids.alloc()
	handle := newHandle(pid)
	// Join the child's lane from the parent's context: the parent's own
	// active frontier (<= the fork time) holds the safe-time floor, so the
	// join can never land behind the system.
	sys.cfg.Network.GateJoin(childCli.EndpointID(), childCli.Clock())

	if !remote {
		proc := &Proc{PID: pid, Args: args, FS: childCli, core: parent.core, sys: sys}
		sys.trackProc(proc)
		go func() {
			status := fn(proc)
			childCli.CloseAll()
			end := childCli.Clock()
			sys.ends.record(end)
			sys.untrackProc(proc)
			sys.cfg.Network.GateIdle(childCli.EndpointID())
			handle.finish(status, end)
		}()
		return handle, nil
	}

	target := sys.placer.pick(parent.core)
	srv, ok := sys.servers[target]
	if !ok {
		srv = sys.servers[parent.core]
	}
	if srv == nil {
		return nil, fmt.Errorf("sched: no scheduling server for core %d", target)
	}
	progID := sys.registerProgram(fn)

	// The forked child immediately execs: it exports its descriptor table,
	// sends the exec RPC, and turns into a proxy blocked on the reply,
	// which arrives when the remote process exits.
	go func() {
		specs, err := childCli.ExportFds()
		if err != nil {
			childCli.CloseAll()
			sys.ends.record(childCli.Clock())
			sys.cfg.Network.GateIdle(childCli.EndpointID())
			handle.finish(127, childCli.Clock())
			return
		}
		exit, err := childCli.ExecOn(srv.ep.ID, &proto.Request{
			Op:      proto.OpExec,
			Program: progID,
			Args:    args,
			Dirname: childCli.Getcwd(),
			Fds:     specs,
			PID:     pid,
		})
		status := 127
		if err == nil {
			status = int(exit)
		}
		// The proxy exits: close its descriptors and report the remote
		// process's status to the parent.
		childCli.CloseAll()
		end := childCli.Clock()
		sys.ends.record(end)
		sys.cfg.Network.GateIdle(childCli.EndpointID())
		handle.finish(status, end)
	}()
	return handle, nil
}

// Signal delivers a signal to a process anywhere in the system; the paper
// routes signals through the proxy and scheduling server, which this
// reproduction simplifies to a direct cooperative flag.
func (sys *HareSystem) Signal(pid int64) bool {
	sys.procMu.Lock()
	defer sys.procMu.Unlock()
	p, ok := sys.procs[pid]
	if ok {
		p.Kill()
	}
	return ok
}

// Live returns the number of client processes currently running (spawned and
// not yet exited). The deployment consults it before swapping the
// virtual-time engine: switching with processes live would hand running
// lanes to a gate that never saw them join.
func (sys *HareSystem) Live() int {
	sys.procMu.Lock()
	defer sys.procMu.Unlock()
	return len(sys.procs)
}

func (sys *HareSystem) trackProc(p *Proc) {
	sys.procMu.Lock()
	sys.procs[p.PID] = p
	sys.procMu.Unlock()
}

func (sys *HareSystem) untrackProc(p *Proc) {
	sys.procMu.Lock()
	delete(sys.procs, p.PID)
	sys.procMu.Unlock()
}

// registerProgram stores a process body under a fresh id so the exec RPC can
// name it; the scheduling server claims it exactly once.
func (sys *HareSystem) registerProgram(fn ProcFunc) string {
	sys.progMu.Lock()
	defer sys.progMu.Unlock()
	sys.progSeq++
	id := fmt.Sprintf("prog-%d", sys.progSeq)
	sys.programs[id] = fn
	return id
}

// claimProgram removes and returns a registered program.
func (sys *HareSystem) claimProgram(id string) (ProcFunc, bool) {
	sys.progMu.Lock()
	defer sys.progMu.Unlock()
	fn, ok := sys.programs[id]
	if ok {
		delete(sys.programs, id)
	}
	return fn, ok
}

// run is the scheduling server loop.
func (s *schedServer) run() {
	defer close(s.done)
	for {
		env, ok := s.ep.Inbox.PopWait()
		if !ok {
			return
		}
		s.handle(env)
	}
}

func (s *schedServer) handle(env msg.Envelope) {
	req, err := proto.UnmarshalRequest(env.Payload)
	if err != nil {
		s.reply(env, proto.ErrResponse(fsapi.EINVAL), env.ArriveAt)
		return
	}
	cost := &s.sys.cfg.Machine.Cost
	start := env.ArriveAt
	if now := s.clock.Now(); now > start {
		start = now
	}
	end := s.sys.cfg.Machine.Execute(s.core, start, cost.MsgRecv+cost.ServeExec)
	s.clock.AdvanceTo(end)

	switch req.Op {
	case proto.OpExec:
		s.handleExec(req, env, end)
	case proto.OpSignal:
		ok := s.sys.Signal(req.PID)
		resp := &proto.Response{}
		if !ok {
			resp.Err = fsapi.ENOENT
		}
		s.reply(env, resp, end)
	case proto.OpPing:
		s.reply(env, &proto.Response{}, end)
	default:
		s.reply(env, proto.ErrResponse(fsapi.ENOSYS), end)
	}
}

// handleExec spawns the requested program locally (the scheduling server
// forks itself and execs the target image, §3.5). The reply to the proxy is
// sent when the process exits.
func (s *schedServer) handleExec(req *proto.Request, env msg.Envelope, at sim.Cycles) {
	fn, ok := s.sys.claimProgram(req.Program)
	if !ok {
		s.reply(env, proto.ErrResponse(fsapi.ENOENT), at)
		return
	}
	cli := s.sys.cfg.NewClient(s.core)
	net := s.sys.cfg.Network
	if net.Gate() != nil {
		// Parallel engine: the proxy's frontier (<= its exec send time <= at)
		// still holds the safe-time floor, so join the child's lane at `at`
		// first, then park the proxy until the exit reply resumes it. The
		// clock moves before ImportFds so the child never sends behind its
		// own lane; serialized mode keeps the legacy order (import at the
		// fork-time clock) bit-identical.
		cli.AdvanceClock(at)
		net.GateJoin(cli.EndpointID(), at)
		net.GateIdle(env.Src)
	}
	cli.ImportFds(req.Fds)
	cli.SetCwd(req.Dirname)
	cli.AdvanceClock(at)

	proc := &Proc{PID: req.PID, Args: req.Args, FS: cli, core: s.core, sys: s.sys}
	s.sys.trackProc(proc)
	go func() {
		status := fn(proc)
		cli.CloseAll()
		end := cli.Clock()
		s.sys.ends.record(end)
		s.sys.untrackProc(proc)
		// Reply before idling the child's lane: the reply's Resume hands the
		// safe-time floor to the proxy, and the child's own frontier (<= end)
		// must hold it until then.
		s.reply(env, &proto.Response{ExitStatus: int32(status), PID: proc.PID}, end)
		net.GateIdle(cli.EndpointID())
	}()
}

func (s *schedServer) reply(env msg.Envelope, resp *proto.Response, at sim.Cycles) {
	s.sys.cfg.Network.Reply(s.ep, env, proto.KindResponse, resp.Marshal(), at)
}
