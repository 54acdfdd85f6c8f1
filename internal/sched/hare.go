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
// sensibly in virtual time. Roots are started while the system is quiescent
// or from a lane at or below that time.
func (sys *HareSystem) StartRoot(core int, args []string, fn ProcFunc) *Handle {
	cli := sys.cfg.NewClient(core)
	proc := &Proc{PID: sys.pids.alloc(), Args: args, FS: cli, core: core, sys: sys}
	handle := newHandle(proc.PID)
	sys.run(proc, cli, sys.ends.maxEnd(), fn, handle.finish)
	return handle
}

// run starts a process and is where its lane lives and dies (DESIGN.md §13).
// The lane joins the gate at the process's start, at least `at`, from the
// caller's context: the caller's own active frontier — the forking parent's,
// the exec proxy's — is at or below that time and holds the floor under the
// join. At exit the process closes its descriptors, records its end, reports
// it (exited finishes a handle or answers the proxy) and only then leaves
// the gate, so its frontier holds the floor until whoever resumes at its end
// is back.
func (sys *HareSystem) run(proc *Proc, cli *client.Client, at sim.Cycles, fn ProcFunc, exited func(status int, end sim.Cycles)) {
	cli.AdvanceClock(at)
	sys.cfg.Network.GateJoin(cli.EndpointID(), cli.Clock())
	sys.trackProc(proc)
	go func() {
		status := fn(proc)
		sys.untrackProc(proc)
		sys.exit(cli, status, exited)
	}()
}

// exit is the end of a process or of an exec proxy: close, record, report,
// leave — in that order (see run).
func (sys *HareSystem) exit(cli *client.Client, status int, exited func(status int, end sim.Cycles)) {
	cli.CloseAll()
	end := cli.Clock()
	sys.ends.record(end)
	exited(status, end)
	sys.cfg.Network.GateIdle(cli.EndpointID())
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

	if !remote {
		proc := &Proc{PID: pid, Args: args, FS: childCli, core: parent.core, sys: sys}
		sys.run(proc, childCli, childCli.Clock(), fn, handle.finish)
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
	// which arrives when the remote process exits. Its lane joins here, under
	// the parent's frontier, like any child's.
	sys.cfg.Network.GateJoin(childCli.EndpointID(), childCli.Clock())
	go func() {
		status := 127
		if specs, err := childCli.ExportFds(); err == nil {
			code, err := childCli.ExecOn(srv.ep.ID, &proto.Request{
				Op:      proto.OpExec,
				Program: progID,
				Args:    args,
				Dirname: childCli.Getcwd(),
				Fds:     specs,
				PID:     pid,
			})
			if err == nil {
				status = int(code)
			}
		}
		// The proxy exits, reporting the remote process's status to the parent.
		sys.exit(childCli, status, handle.finish)
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
// sent when the process exits. Until then the process holds the proxy's
// request, as its first step: after its own lane has joined (run) under the
// proxy's frontier — at most the exec's send time, hence at most at — and
// before the reply that ends the hold.
func (s *schedServer) handleExec(req *proto.Request, env msg.Envelope, at sim.Cycles) {
	fn, ok := s.sys.claimProgram(req.Program)
	if !ok {
		s.reply(env, proto.ErrResponse(fsapi.ENOENT), at)
		return
	}
	cli := s.sys.cfg.NewClient(s.core)
	cli.ImportFds(req.Fds)
	cli.SetCwd(req.Dirname)
	proc := &Proc{PID: req.PID, Args: req.Args, FS: cli, core: s.core, sys: s.sys}
	s.sys.run(proc, cli, at, func(p *Proc) int {
		s.sys.cfg.Network.Hold(env)
		return fn(p)
	}, func(status int, end sim.Cycles) {
		s.reply(env, &proto.Response{ExitStatus: int32(status), PID: proc.PID}, end)
	})
}

func (s *schedServer) reply(env msg.Envelope, resp *proto.Response, at sim.Cycles) {
	s.sys.cfg.Network.Reply(s.ep, env, proto.KindResponse, resp.Marshal(), at)
}
