package chaos

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/shadow"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Report summarizes one chaos run.
type Report struct {
	Ops     int            // POSIX operations executed by the trace
	Events  int            // fault-schedule events fired
	Faults  msg.FaultStats // message faults the network injected
	Epoch   uint64         // final placement epoch
	Servers int            // final server count
	Cycles  sim.Cycles     // virtual time at the end of the run
	// Spans is the traced span ring (oldest first); nil unless the run's
	// Config.Trace was enabled.
	Spans []trace.Span
	// Namespace is the final tree under /chaos (path -> entry fingerprint);
	// nil unless Config.Snapshot was set. Two passing runs of the same tuple
	// must produce identical maps whichever engine they ran on.
	Namespace map[string]string
}

// dupOK is the fault plan's idempotence classifier: the network may deliver
// twice the requests proto.OpInfo marks idempotent. A batch is what it
// carries: duplicable when every sub-operation is (a chained LOOKUP → STAT),
// not when one is not (LOOKUP → OPEN leaves a descriptor reference behind).
func dupOK(kind uint16, payload []byte) bool {
	if kind != proto.KindRequest {
		return false
	}
	var req proto.Request
	if proto.UnmarshalRequestInto(&req, payload) != nil {
		return false
	}
	if req.Op != proto.OpBatch {
		return req.Op.Info().Idempotent
	}
	subs, _, err := proto.UnmarshalBatchInto(nil, req.Data)
	for i := range subs {
		if !subs[i].Op.Info().Idempotent {
			return false
		}
	}
	return err == nil
}

// coreConfig maps a chaos config onto a Hare deployment: timeshare (so
// AddServer works), durability enabled (so the crash events work), headroom
// up to MaxServers, replication when the tuple asks for it.
func coreConfig(cfg Config) core.Config {
	return core.Config{
		Cores:            cfg.Cores,
		Servers:          cfg.Servers,
		Timeshare:        true,
		Techniques:       cfg.Techniques,
		Placement:        sched.PolicyRoundRobin,
		Seed:             cfg.Seed,
		PlacePolicy:      cfg.Policy,
		MaxServers:       cfg.MaxServers,
		BufferCacheBytes: 8 << 20,
		BlockSize:        4096,
		Durability:       core.Durability{Enabled: true},
		Replication:      repl.Config{Mode: cfg.Replication},
		Trace:            cfg.Trace,
	}
}

// Run executes one chaos run: derive the plan from the (seed, config) tuple,
// drive it against a fresh deployment, and conformance-check every quiescent
// point against the shadow model. The returned error, if any, carries the
// run's repro tuple.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	return RunPlan(NewPlan(cfg))
}

// RunPlan executes an already-derived plan.
func RunPlan(plan *Plan) (*Report, error) {
	cfg := plan.Cfg
	sys, err := core.New(coreConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("chaos tuple=%s: %w", cfg.Tuple(), err)
	}
	sys.Start()
	defer sys.Stop()
	if cfg.Parallel {
		if perr := sys.SetParallel(true); perr != nil {
			return nil, fmt.Errorf("chaos tuple=%s: %w", cfg.Tuple(), perr)
		}
	}
	sys.Network().SetFaultPlan(&msg.FaultPlan{
		Seed:         cfg.Seed,
		MaxDelay:     cfg.MaxDelay,
		DelayPercent: cfg.DelayPercent,
		DupPercent:   cfg.DupPercent,
		DupOK:        dupOK,
	})

	roots := []string{"/chaos"}
	for proc := 0; proc < cfg.Procs; proc++ {
		roots = append(roots, fmt.Sprintf("/chaos/p%02d", proc))
	}
	model := shadow.NewModel(roots...)
	model.DirectAccess = cfg.Techniques.DirectAccess

	rep := &Report{}
	var runErr error
	cores := sys.AppCores()
	h := sys.Procs().StartRoot(cores[0], []string{"chaos-root"}, func(p *sched.Proc) int {
		if err := p.FS.Mkdir("/chaos", fsapi.MkdirOpt{Distributed: true}); err != nil {
			runErr = fmt.Errorf("mkdir /chaos: %w", err)
			return 1
		}
		for _, dir := range roots[1:] {
			if err := p.FS.Mkdir(dir, fsapi.MkdirOpt{Distributed: true}); err != nil {
				runErr = fmt.Errorf("mkdir %s: %w", dir, err)
				return 1
			}
		}
		for round := 0; round < cfg.Rounds; round++ {
			if err := runRound(sys, plan, model, p, round, rep); err != nil {
				runErr = err
				return 1
			}
		}
		return 0
	})
	status := h.Wait()
	rep.Faults = sys.Network().FaultStats()
	rep.Epoch = sys.Epoch()
	rep.Servers = sys.NumServers()
	rep.Cycles = h.EndTime()
	if tr := sys.Tracer(); tr != nil {
		rep.Spans = tr.Spans()
	}
	if runErr != nil {
		return rep, fmt.Errorf("chaos tuple=%s: %w", cfg.Tuple(), runErr)
	}
	if status != 0 {
		return rep, fmt.Errorf("chaos tuple=%s: root process exited %d", cfg.Tuple(), status)
	}
	if cfg.Snapshot {
		// Final-state fingerprint for cross-engine equivalence. The walk uses
		// a fresh client against the quiescent deployment; faults off so the
		// read-back itself is deterministic.
		sys.Network().SetFaultPlan(nil)
		ns := make(map[string]string)
		if err := snapshotNamespace(sys.NewClient(0), "/chaos", ns); err != nil {
			return rep, fmt.Errorf("chaos tuple=%s: snapshot: %w", cfg.Tuple(), err)
		}
		rep.Namespace = ns
	}
	return rep, nil
}

// snapshotNamespace walks the tree under dir and records every entry:
// directories by name, files by size and content.
func snapshotNamespace(fs fsapi.Client, dir string, out map[string]string) error {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("readdir %s: %w", dir, err)
	}
	for _, ent := range ents {
		path := dir + "/" + ent.Name
		if ent.Type == fsapi.TypeDir {
			out[path] = "dir"
			if err := snapshotNamespace(fs, path, out); err != nil {
				return err
			}
			continue
		}
		r := shadow.Do(fs, shadow.Op{Kind: shadow.OpRead, Path: path})
		if r.Err != fsapi.OK {
			return fmt.Errorf("read %s: %w", path, r.Err)
		}
		out[path] = fmt.Sprintf("file[%d]:%x", len(r.Data), r.Data)
	}
	return nil
}

// runRound runs one round from the root process p, which sends every event
// from its own client, at its own clock. A mid-round membership change starts
// first: the round's workers, one per planned op list, are spawned once every
// server has answered its FREEZE (the transition's pull stage), and PULL,
// publish and COMMIT run against their traffic — shard freezing, EEPOCH
// refresh-retry and serve-while-frozen parking are on the hot path. Once the
// workers have exited, the round's scheduled faults fire one after another at
// the quiescent boundary, and the whole namespace is diffed against the
// shadow model.
func runRound(sys *core.System, plan *Plan, model *shadow.Model, p *sched.Proc, round int, rep *Report) error {
	cfg := plan.Cfg
	cli := p.FS.(*client.Client)
	errs := make([]error, cfg.Procs)
	done := make([]int, cfg.Procs)
	var handles []*sched.Handle
	spawn := func() {
		for idx, ops := range plan.Ops[round] {
			h, err := p.Spawn([]string{fmt.Sprintf("chaos-w%02d", idx)}, func(wp *sched.Proc) int {
				for _, op := range ops {
					if err := applyOp(wp, model, op); err != nil {
						errs[idx] = fmt.Errorf("round %d proc %d: %w", round, idx, err)
						return 1
					}
					done[idx]++
				}
				return 0
			}, true)
			if err != nil {
				errs[idx] = fmt.Errorf("round %d: spawn worker %d: %w", round, idx, err)
				return
			}
			handles = append(handles, h)
		}
	}

	for _, ev := range plan.Events {
		if ev.Round == round && ev.Mid {
			sys.SetMigrationObserver(func(stage string, _ int) {
				if stage == "pull" && handles == nil {
					spawn()
				}
			})
			err := fireEvent(sys, cli, model, ev, rep)
			sys.SetMigrationObserver(nil)
			if err != nil {
				return fmt.Errorf("round %d mid event %s: %w", round, ev.Kind, err)
			}
		}
	}
	if handles == nil {
		spawn()
	}
	p.Wait(handles...)
	for i := range errs {
		if errs[i] != nil {
			return errs[i]
		}
		rep.Ops += done[i]
	}

	lossy := false
	for _, ev := range plan.Events {
		if ev.Round == round && !ev.Mid {
			lossy = lossy || ev.Kind == EvCrashLoseMem || (ev.Kind == EvFailover && ev.Lose)
			if err := fireEvent(sys, cli, model, ev, rep); err != nil {
				return fmt.Errorf("round %d event %s srv %d: %w", round, ev.Kind, ev.Server, err)
			}
		}
	}

	// The oracle: full namespace + content diff against the shadow model.
	if err := model.Verify(p.FS); err != nil {
		return fmt.Errorf("conformance after round %d: %w", round, err)
	}
	if lossy {
		// Adopt whatever recovery produced for the legally-lost contents so
		// the next round's reads have an exact reference again.
		if err := model.Reconcile(p.FS); err != nil {
			return fmt.Errorf("reconcile after round %d: %w", round, err)
		}
	}
	return nil
}

// fireEvent executes one scheduled fault, keeping the shadow model's
// durability bookkeeping in step.
func fireEvent(sys *core.System, cli *client.Client, model *shadow.Model, ev Event, rep *Report) error {
	rep.Events++
	switch ev.Kind {
	case EvCheckpoint:
		if err := sys.Checkpoint(cli, ev.Server); err != nil {
			return err
		}
		model.NoteCheckpoint(ev.Server)
	case EvCheckpointAll:
		if err := sys.CheckpointAll(cli); err != nil {
			return err
		}
		model.NoteCheckpoint(-1)
	case EvCrash:
		if err := sys.Crash(cli, ev.Server); err != nil {
			return err
		}
		if _, err := sys.Recover(cli, ev.Server); err != nil {
			return err
		}
	case EvCrashLoseMem:
		if err := sys.CrashLosingMemory(cli, ev.Server); err != nil {
			return err
		}
		model.CrashLostMemory(ev.Server)
		if _, err := sys.Recover(cli, ev.Server); err != nil {
			return err
		}
	case EvAddServer:
		if _, err := sys.AddServer(cli); err != nil {
			return err
		}
	case EvRemoveServer:
		if err := sys.RemoveServer(cli, ev.Server); err != nil {
			return err
		}
	case EvMigrateCrash:
		return fireMigrateCrash(sys, cli, ev)
	case EvFailover:
		return fireFailover(sys, cli, model, ev)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	return nil
}

// fireFailover crashes a victim server and promotes its replica instead of
// replaying its log, with the event's chosen complications: the crash may
// wipe the victim's DRAM (Lose), the follower may already be down (Double —
// promotion must fall back to log replay), or the follower may die at a
// chosen stage of the promotion itself (Stage "seal" → fallback again;
// Stage "publish" → the promotion's transition stays pending, and the
// follower's recovery must converge it). In every variant the promotion
// must lose no acked write.
func fireFailover(sys *core.System, cli *client.Client, model *shadow.Model, ev Event) error {
	victim := ev.Server
	fid := sys.FollowerOf(victim)
	if fid < 0 {
		return fmt.Errorf("failover: replication is not running")
	}
	if ev.Lose {
		if err := sys.CrashLosingMemory(cli, victim); err != nil {
			return err
		}
		model.CrashLostMemory(victim)
	} else if err := sys.Crash(cli, victim); err != nil {
		return err
	}

	expectFallback := false
	followerDown := false
	if ev.Double {
		if err := sys.Crash(cli, fid); err != nil {
			return fmt.Errorf("failover: crash follower %d: %w", fid, err)
		}
		followerDown = true
		expectFallback = true
	}
	staged := false
	if ev.Stage != "" && !ev.Double {
		sys.SetMigrationObserver(func(stage string, srv int) {
			if !staged && stage == ev.Stage {
				staged = true
				_ = sys.Crash(cli, fid)
			}
		})
	}

	rep, err := sys.Failover(cli, victim)
	sys.SetMigrationObserver(nil)
	if staged {
		followerDown = true
		if ev.Stage == "seal" {
			expectFallback = true
		}
	}
	if err != nil {
		// The only survivable failure is the follower dying mid-promotion
		// after the seal: the promotion's transition must stay pending, and
		// recovering the follower re-drives it.
		if !staged || !sys.MigrationPending() {
			return fmt.Errorf("failover server %d: %w", victim, err)
		}
		if _, rerr := sys.Recover(cli, fid); rerr != nil {
			return fmt.Errorf("failover: recover follower %d: %w", fid, rerr)
		}
		if sys.MigrationPending() {
			return fmt.Errorf("failover: transition still pending after follower %d recovered", fid)
		}
		return nil
	}
	if expectFallback && !rep.Fallback {
		return fmt.Errorf("failover server %d: expected a fallback replay (follower down), got a promotion", victim)
	}
	if rep.LostRecords > 0 {
		return fmt.Errorf("failover server %d lost %d acked records", victim, rep.LostRecords)
	}
	if followerDown {
		if _, err := sys.Recover(cli, fid); err != nil {
			return fmt.Errorf("failover: recover follower %d: %w", fid, err)
		}
	}
	return nil
}

// fireMigrateCrash kills a victim server at a chosen stage of a live
// migration, then recovers it; Recover auto-resumes the interrupted protocol
// and the run proceeds only once the migration has converged.
func fireMigrateCrash(sys *core.System, cli *client.Client, ev Event) error {
	fired := false
	sys.SetMigrationObserver(func(stage string, srv int) {
		if !fired && stage == ev.Stage && srv == ev.Victim {
			fired = true
			_ = sys.Crash(cli, ev.Victim)
		}
	})
	var migErr error
	if ev.Add {
		_, migErr = sys.AddServer(cli)
	} else {
		migErr = sys.RemoveServer(cli, ev.Server)
	}
	sys.SetMigrationObserver(nil)
	if !fired {
		// The (stage, victim) pair never came up; the migration ran clean.
		return migErr
	}
	if migErr == nil {
		return fmt.Errorf("migrate-crash: killing server %d at %s did not interrupt the migration", ev.Victim, ev.Stage)
	}
	if !sys.MigrationPending() {
		return fmt.Errorf("migrate-crash: no pending migration after interrupting at %s", ev.Stage)
	}
	if _, err := sys.Recover(cli, ev.Victim); err != nil {
		return fmt.Errorf("migrate-crash: recover server %d: %w", ev.Victim, err)
	}
	if sys.MigrationPending() {
		return fmt.Errorf("migrate-crash: migration still pending after recovery resumed it")
	}
	return nil
}

// applyOp runs one generated operation on the live file system and checks
// its answer against the one the shadow model gives. A created file's home
// server comes from a stat, for the durability bookkeeping.
func applyOp(p *sched.Proc, model *shadow.Model, op shadow.Op) error {
	var got shadow.Result
	if op.Kind == shadow.OpPipeFork {
		data, err := pipeForkExchange(p, op)
		if err != nil {
			return err
		}
		got.Data = data
	} else {
		got = shadow.Do(p.FS, op)
	}
	if err := shadow.Check(op, got, model.Step(op)); err != nil {
		return err
	}
	if op.Kind == shadow.OpCreate {
		st, err := p.FS.Stat(op.Path)
		if err != nil {
			return fmt.Errorf("stat after create: %w", err)
		}
		model.NoteHome(op.Path, st.Server)
	}
	return nil
}

// pipeForkExchange creates a pipe, forks a child that inherits both ends and
// writes the op's data into it, and returns what the parent reads back: pipe
// semantics and descriptor inheritance across fork, under message faults.
func pipeForkExchange(p *sched.Proc, op shadow.Op) ([]byte, error) {
	fs := p.FS
	rd, wr, err := fs.Pipe()
	if err != nil {
		return nil, fmt.Errorf("pipe: %w", err)
	}
	data := op.Data()
	child, err := p.Spawn([]string{"chaos-pipe-child"}, func(cp *sched.Proc) int {
		// The child sees the same descriptor numbers (fork semantics).
		if err := cp.FS.Close(rd); err != nil {
			return 2
		}
		if _, err := cp.FS.Write(wr, data); err != nil {
			return 3
		}
		if err := cp.FS.Close(wr); err != nil {
			return 4
		}
		return 0
	}, false)
	if err != nil {
		fs.Close(rd)
		fs.Close(wr)
		return nil, fmt.Errorf("fork: %w", err)
	}
	// Parent drops its write end so EOF arrives once the child closes.
	if err := fs.Close(wr); err != nil {
		return nil, fmt.Errorf("close parent write end: %w", err)
	}
	var got []byte
	buf := make([]byte, 256)
	for {
		n, err := fs.Read(rd, buf)
		if err != nil {
			fs.Close(rd)
			return nil, fmt.Errorf("pipe read: %w", err)
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if err := fs.Close(rd); err != nil {
		return nil, fmt.Errorf("close read end: %w", err)
	}
	if status := p.Wait(child); status != 0 {
		return nil, fmt.Errorf("pipe child exited %d", status)
	}
	return got, nil
}
