package sim_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFrontierSound runs whole deployments under the parallel engine with the
// gate's audit installed (export_test.go) and requires a clean record: no
// lane ever sent below the frontier it had published, no replier raised a
// lane that was not blocked on a reply, and no reply arrived before the bound
// its requester had published — the cost-model lookahead of DESIGN.md §13
// leans on exactly these. The scenarios are the shapes of traffic that reach
// the gate differently: the cross-engine equivalence suite's workloads,
// pipelined clients, injected delay and duplicates, pipes and remote exec, a
// jobserver build (processes blocked on each other through a pipe and in
// Proc.Wait), bare library clients, and the failover and migration control
// planes.
// CI runs it under -race at GOMAXPROCS=1,2,8.
func TestFrontierSound(t *testing.T) {
	base := core.Config{
		Cores: 4, Servers: 4, Timeshare: true, Techniques: core.AllTechniques(),
		Placement: sched.PolicyRoundRobin, BufferCacheBytes: 32 << 20,
	}
	run := func(t *testing.T, env *workload.Env, ws ...workload.Workload) {
		t.Helper()
		for _, w := range ws {
			if err := w.Setup(env); err != nil {
				t.Fatalf("%s setup: %v", w.Name(), err)
			}
			if _, err := w.Run(env); err != nil {
				t.Fatalf("%s run: %v", w.Name(), err)
			}
		}
	}

	t.Run("equivalence suite", func(t *testing.T) {
		_, env, verify := auditedSystem(t, base)
		run(t, env, workload.ScaleSweep{FilesPerWorker: 40, DirsPerWorker: 2}, workload.Creates{PerWorker: 12},
			workload.Writes{PerWorker: 40, ChunkSize: 1500}, workload.Renames{PerWorker: 10})
		verify()
	})

	t.Run("pipelined clients", func(t *testing.T) {
		// Without direct access reads go through the server, and a
		// sequential reader keeps the next chunk's request in flight.
		cfg := base
		cfg.Techniques.DirectAccess = false
		sys, env, verify := auditedSystem(t, cfg)
		run(t, env, workload.BigFile{FileKiB: 32, Rounds: 1}, workload.SmallFile{PerWorker: 6})
		reads := uint64(0)
		for _, st := range sys.ServerStats() {
			reads += st.Ops[proto.OpReadAt]
		}
		if reads == 0 {
			t.Fatal("no server-mediated read: the readahead path did not run")
		}
		verify()
	})

	t.Run("delay and duplicates", func(t *testing.T) {
		sys, env, verify := auditedSystem(t, base)
		sys.Network().SetFaultPlan(&msg.FaultPlan{
			Seed: 42, MaxDelay: 5000, DelayPercent: 30, DupPercent: 20,
			DupOK: func(kind uint16, payload []byte) bool {
				req := &proto.Request{}
				err := proto.UnmarshalRequestInto(req, payload)
				return kind == proto.KindRequest && err == nil &&
					(req.Op == proto.OpLookup || req.Op == proto.OpStat || req.Op == proto.OpGetBlocks)
			},
		})
		run(t, env, workload.ScaleSweep{FilesPerWorker: 30, DirsPerWorker: 2})
		if st := sys.Network().FaultStats(); st.Delayed == 0 || st.Duplicated == 0 {
			t.Fatalf("the fault plan injected nothing: %+v", st)
		}
		sys.Network().SetFaultPlan(nil)
		verify()
	})

	t.Run("pipes and remote exec", func(t *testing.T) {
		_, env, verify := auditedSystem(t, base)
		// Extract streams an archive through a pipe between a process and
		// its forked child (reads park on the empty pipe and are woken by
		// the writer); Punzip's workers, like every fan-out here, are
		// exec'd through the scheduling servers (AwaitHandoff).
		run(t, env, workload.Extract{Dirs: 2, PerDir: 4, FileSize: 4096}, workload.Punzip{Copies: 4, PerCopy: 6})
		verify()
	})

	t.Run("jobserver build", func(t *testing.T) {
		// make's jobserver pipe is shared across exec'd jobs — a token read
		// parks until another job's exit writes one back — while the root is
		// blocked in Proc.Wait on all of them and links once they are done.
		_, env, verify := auditedSystem(t, base)
		run(t, env, workload.BuildLinux{})
		verify()
	})

	t.Run("bare clients", func(t *testing.T) {
		// Library-driven clients park their lanes between calls; Sync and
		// CloseAll scatter batches and await them all.
		sys, _, verify := auditedSystem(t, base)
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if err := bareClientOps(sys.NewClient(c), c); err != nil {
					t.Errorf("bare client %d: %v", c, err)
				}
			}(c)
		}
		wg.Wait()
		verify()
	})

	control := base
	control.Servers, control.MaxServers = 2, 4
	control.Durability = core.Durability{Enabled: true}

	t.Run("failover", func(t *testing.T) {
		cfg := control
		cfg.Replication = repl.Config{Mode: repl.Sync}
		sys, env, verify := auditedSystem(t, cfg)
		ctl := sys.NewClient(0)
		run(t, env, workload.Creates{PerWorker: 8})
		if err := sys.CheckpointAll(ctl); err != nil {
			t.Fatal(err)
		}
		if err := sys.Crash(ctl, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Failover(ctl, 1); err != nil {
			t.Fatal(err)
		}
		run(t, env, workload.Renames{PerWorker: 6})
		verify()
	})

	t.Run("migration", func(t *testing.T) {
		sys, env, verify := auditedSystem(t, control)
		ctl := sys.NewClient(0)
		run(t, env, workload.Creates{PerWorker: 8})
		id, err := sys.AddServer(ctl)
		if err != nil {
			t.Fatal(err)
		}
		run(t, env, workload.Renames{PerWorker: 6})
		if err := sys.RemoveServer(ctl, id); err != nil {
			t.Fatal(err)
		}
		run(t, env, workload.ScaleSweep{FilesPerWorker: 20, DirsPerWorker: 2})
		verify()
	})
}

// auditedSystem starts a deployment under the parallel engine with the gate's
// audit installed. verify fails the test on any recorded violation, and on a
// run in which the audit saw no sends, no awaits or no replier's raise.
func auditedSystem(t *testing.T, cfg core.Config) (*core.System, *workload.Env, func()) {
	t.Helper()
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	if err := sys.SetParallel(true); err != nil {
		t.Fatal(err)
	}
	audit := sys.Network().Gate().Audit()
	env := &workload.Env{Procs: sys.Procs(), Cores: sys.AppCores(), Scale: 0.05}
	return sys, env, func() {
		t.Helper()
		for _, v := range audit.Violations() {
			t.Error(v)
		}
		if sent, awaits, replied := audit.Counts(); sent == 0 || awaits == 0 || replied == 0 {
			t.Fatalf("the audit saw %d sends, %d awaits, %d replier raises: the run exercised nothing", sent, awaits, replied)
		}
	}
}

// bareClientOps writes, syncs, reads back and closes a few files through one
// library client.
func bareClientOps(fs *client.Client, id int) error {
	dir := fmt.Sprintf("/bare%d", id)
	if err := fs.Mkdir(dir, fsapi.MkdirOpt{Distributed: true}); err != nil {
		return err
	}
	data := make([]byte, 3000)
	var fds []fsapi.FD
	for i := 0; i < 4; i++ {
		fd, err := fs.Open(fmt.Sprintf("%s/f%d", dir, i), fsapi.OCreate|fsapi.ORdWr, fsapi.Mode644)
		if err != nil {
			return err
		}
		if _, err := fs.Write(fd, data); err != nil {
			return err
		}
		fds = append(fds, fd)
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	for _, fd := range fds {
		if _, err := fs.Seek(fd, 0, fsapi.SeekSet); err != nil {
			return err
		}
		if n, err := fs.Read(fd, data); err != nil || n != len(data) {
			return fmt.Errorf("read back %d bytes: %v", n, err)
		}
	}
	fs.CloseAll()
	_, err := fs.ReadDir(dir)
	return err
}

// TestFrontierSoundMesh audits the message layer alone: gated echo servers
// that answer from behind a queue, and clients that mix blocking calls with
// pipelined ones whose replies they harvest out of order, under delivery
// jitter and duplication.
func TestFrontierSoundMesh(t *testing.T) {
	const servers, clients, rounds, turnaround = 4, 12, 200, 700
	m := sim.NewMachine(sim.TopologyForCores(8), sim.DefaultCostModel())
	n := msg.NewNetwork(msg.WrapMachine(m))
	g := sim.NewGate()
	n.SetGate(g)
	audit := g.Audit()
	n.SetFaultPlan(&msg.FaultPlan{
		Seed: 3, MaxDelay: 2000, DelayPercent: 30, DupPercent: 20,
		DupOK: func(uint16, []byte) bool { return true },
	})
	var srvWG, cliWG sync.WaitGroup
	srvEPs := make([]*msg.Endpoint, servers)
	for i := range srvEPs {
		ep := n.NewEndpoint(i)
		ep.Turnaround = turnaround
		srvEPs[i] = ep
		srvWG.Add(1)
		go func() {
			defer srvWG.Done()
			var clock sim.Cycles
			for {
				env, ok := ep.Inbox.PopWaitEarliestGated(g)
				if !ok {
					return
				}
				clock = max(clock, env.ArriveAt) + turnaround
				ep.PutBuf(env.Payload)
				n.Reply(ep, env, env.Kind, ep.GetBuf(8)[:8], clock)
			}
		}()
	}
	cliEPs := make([]*msg.Endpoint, clients)
	for c := range cliEPs {
		cliEPs[c] = n.NewEndpoint(c % 8)
		n.GateJoin(cliEPs[c].ID, 0)
	}
	for c, ep := range cliEPs {
		cliWG.Add(1)
		go func() {
			defer cliWG.Done()
			defer n.GateIdle(ep.ID)
			var clock sim.Cycles
			harvest := func(env msg.Envelope) {
				clock = max(clock, env.ArriveAt)
				ep.PutBuf(env.Payload)
			}
			for i := 0; i < rounds; i++ {
				a, b := srvEPs[(c+i)%servers], srvEPs[(c+3*i+1)%servers]
				if i%3 != 0 {
					env, err := n.RPC(ep, a.ID, 1, ep.GetBuf(16)[:16], clock)
					if err != nil {
						t.Error(err)
						return
					}
					harvest(env)
					clock += 300
					continue
				}
				fa, err := n.SendAsync(ep, a.ID, 1, ep.GetBuf(16)[:16], clock)
				if err != nil {
					t.Error(err)
					return
				}
				clock += 300
				fb, err := n.SendAsync(ep, b.ID, 1, ep.GetBuf(16)[:16], clock)
				if err != nil {
					t.Error(err)
					return
				}
				// The later request first; the earlier one's reply may be
				// there by then.
				env, err := fb.Await()
				if err != nil {
					t.Error(err)
					return
				}
				harvest(env)
				if env, err = fa.Await(); err != nil {
					t.Error(err)
					return
				}
				harvest(env)
				clock += 300
			}
		}()
	}
	cliWG.Wait()
	for _, ep := range srvEPs {
		ep.Inbox.Close()
	}
	srvWG.Wait()
	for _, v := range audit.Violations() {
		t.Error(v)
	}
	if sent, awaits, replied := audit.Counts(); sent == 0 || awaits == 0 || replied == 0 {
		t.Fatalf("the audit saw %d sends, %d awaits, %d replier raises", sent, awaits, replied)
	}
}
