package chaos

import (
	"bytes"
	"fmt"

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

	model := shadow.NewModel("/chaos")
	model.DirectAccess = cfg.Techniques.DirectAccess

	rep := &Report{}
	var runErr error
	cores := sys.AppCores()
	h := sys.Procs().StartRoot(cores[0], []string{"chaos-root"}, func(p *sched.Proc) int {
		if err := p.FS.Mkdir("/chaos", fsapi.MkdirOpt{Distributed: true}); err != nil {
			runErr = fmt.Errorf("mkdir /chaos: %w", err)
			return 1
		}
		for proc := 0; proc < cfg.Procs; proc++ {
			dir := fmt.Sprintf("/chaos/p%02d", proc)
			if err := p.FS.Mkdir(dir, fsapi.MkdirOpt{Distributed: true}); err != nil {
				runErr = fmt.Errorf("mkdir %s: %w", dir, err)
				return 1
			}
			model.Mkdir(dir)
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
		if dir == "/" {
			path = "/" + ent.Name
		}
		if ent.Type == fsapi.TypeDir {
			out[path] = "dir"
			if err := snapshotNamespace(fs, path, out); err != nil {
				return err
			}
			continue
		}
		st, err := fs.Stat(path)
		if err != nil {
			return fmt.Errorf("stat %s: %w", path, err)
		}
		fd, err := fs.Open(path, fsapi.ORdOnly, 0)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		buf := make([]byte, st.Size)
		total := 0
		for total < len(buf) {
			n, err := fs.Read(fd, buf[total:])
			if err != nil {
				fs.Close(fd)
				return fmt.Errorf("read %s: %w", path, err)
			}
			if n == 0 {
				break
			}
			total += n
		}
		fs.Close(fd)
		out[path] = fmt.Sprintf("file[%d]:%x", st.Size, buf[:total])
	}
	return nil
}

// runRound spawns one worker process per planned op list, fires the round's
// mid-traffic events while they run, then — at the quiescent boundary —
// fires the round's scheduled faults and diffs the whole namespace against
// the shadow model.
func runRound(sys *core.System, plan *Plan, model *shadow.Model, p *sched.Proc, round int, rep *Report) error {
	cfg := plan.Cfg
	errs := make([]error, cfg.Procs)
	done := make([]int, cfg.Procs)
	handles := make([]*sched.Handle, 0, cfg.Procs)
	for proc := range plan.Ops[round] {
		idx := proc
		ops := plan.Ops[round][proc]
		h, err := p.Spawn([]string{fmt.Sprintf("chaos-w%02d", idx)}, func(wp *sched.Proc) int {
			for _, op := range ops {
				if err := applyOp(wp, model, op); err != nil {
					errs[idx] = fmt.Errorf("round %d proc %d op %s %s: %w", round, idx, op.Kind, op.Path, err)
					return 1
				}
				done[idx]++
			}
			return 0
		}, true)
		if err != nil {
			return fmt.Errorf("round %d: spawn worker %d: %w", round, proc, err)
		}
		handles = append(handles, h)
	}

	// The root sends nothing until the verify pass: it is blocked on the
	// round's mid-traffic events, on its workers and on the boundary faults,
	// all of which the host drives, and comes back at the round boundary —
	// the latest worker exit — so rounds and events stay ordered in virtual
	// time and the verify pass joins at its own first send time.
	lossy := false
	var err error
	p.Blocked(func() (latest sim.Cycles) {
		// Membership changes against live traffic: shard freezing, EEPOCH
		// refresh-retry, and serve-while-frozen parking are on the hot path.
		for _, ev := range plan.Events {
			if ev.Round == round && ev.Mid {
				if err = fireEvent(sys, model, ev, rep); err != nil {
					err = fmt.Errorf("round %d mid event %s: %w", round, ev.Kind, err)
					return latest
				}
			}
		}
		for _, h := range handles {
			h.Wait()
			latest = max(latest, h.EndTime())
		}
		for i := range errs {
			if err = errs[i]; err != nil {
				return latest
			}
			rep.Ops += done[i]
		}
		// Quiescent-boundary faults.
		for _, ev := range plan.Events {
			if ev.Round != round || ev.Mid {
				continue
			}
			if ev.Kind == EvCrashLoseMem || (ev.Kind == EvFailover && ev.Lose) {
				lossy = true
			}
			if err = fireEvent(sys, model, ev, rep); err != nil {
				err = fmt.Errorf("round %d event %s srv %d: %w", round, ev.Kind, ev.Server, err)
				return latest
			}
		}
		return latest
	})
	if err != nil {
		return err
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
func fireEvent(sys *core.System, model *shadow.Model, ev Event, rep *Report) error {
	rep.Events++
	switch ev.Kind {
	case EvCheckpoint:
		if err := sys.Checkpoint(ev.Server); err != nil {
			return err
		}
		model.NoteCheckpoint(ev.Server)
	case EvCheckpointAll:
		if err := sys.CheckpointAll(); err != nil {
			return err
		}
		model.NoteCheckpoint(-1)
	case EvCrash:
		if err := sys.Crash(ev.Server); err != nil {
			return err
		}
		if _, err := sys.Recover(ev.Server); err != nil {
			return err
		}
	case EvCrashLoseMem:
		if err := sys.CrashLosingMemory(ev.Server); err != nil {
			return err
		}
		model.CrashLostMemory(ev.Server)
		if _, err := sys.Recover(ev.Server); err != nil {
			return err
		}
	case EvAddServer:
		if _, err := sys.AddServer(); err != nil {
			return err
		}
	case EvRemoveServer:
		if err := sys.RemoveServer(ev.Server); err != nil {
			return err
		}
	case EvMigrateCrash:
		return fireMigrateCrash(sys, ev)
	case EvFailover:
		return fireFailover(sys, model, ev)
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
func fireFailover(sys *core.System, model *shadow.Model, ev Event) error {
	victim := ev.Server
	fid := sys.FollowerOf(victim)
	if fid < 0 {
		return fmt.Errorf("failover: replication is not running")
	}
	if ev.Lose {
		if err := sys.CrashLosingMemory(victim); err != nil {
			return err
		}
		model.CrashLostMemory(victim)
	} else if err := sys.Crash(victim); err != nil {
		return err
	}

	expectFallback := false
	followerDown := false
	if ev.Double {
		if err := sys.Crash(fid); err != nil {
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
				_ = sys.Crash(fid)
			}
		})
	}

	rep, err := sys.Failover(victim)
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
		if _, rerr := sys.Recover(fid); rerr != nil {
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
		if _, err := sys.Recover(fid); err != nil {
			return fmt.Errorf("failover: recover follower %d: %w", fid, err)
		}
	}
	return nil
}

// fireMigrateCrash kills a victim server at a chosen stage of a live
// migration, then recovers it; Recover auto-resumes the interrupted protocol
// and the run proceeds only once the migration has converged.
func fireMigrateCrash(sys *core.System, ev Event) error {
	fired := false
	sys.SetMigrationObserver(func(stage string, srv int) {
		if !fired && stage == ev.Stage && srv == ev.Victim {
			fired = true
			_ = sys.Crash(ev.Victim)
		}
	})
	var migErr error
	if ev.Add {
		_, migErr = sys.AddServer()
	} else {
		migErr = sys.RemoveServer(ev.Server)
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
	if _, err := sys.Recover(ev.Victim); err != nil {
		return fmt.Errorf("migrate-crash: recover server %d: %w", ev.Victim, err)
	}
	if sys.MigrationPending() {
		return fmt.Errorf("migrate-crash: migration still pending after recovery resumed it")
	}
	return nil
}

// applyOp executes one generated operation against the live file system and
// the shadow model, checking read results on the spot.
func applyOp(p *sched.Proc, model *shadow.Model, op Op) error {
	fs := p.FS
	switch op.Kind {
	case OpMkdir:
		if err := fs.Mkdir(op.Path, fsapi.MkdirOpt{}); err != nil {
			return err
		}
		model.Mkdir(op.Path)

	case OpCreate:
		data := pattern(op.Size, op.Seed)
		fd, err := fs.Open(op.Path, fsapi.OCreate|fsapi.OWrOnly|fsapi.OTrunc, fsapi.Mode644)
		if err != nil {
			return err
		}
		if _, err := fs.Write(fd, data); err != nil {
			fs.Close(fd)
			return err
		}
		if op.Sync {
			if err := fs.Fsync(fd); err != nil {
				fs.Close(fd)
				return err
			}
		}
		if err := fs.Close(fd); err != nil {
			return err
		}
		st, err := fs.Stat(op.Path)
		if err != nil {
			return fmt.Errorf("stat after create: %w", err)
		}
		model.SetFile(op.Path, data, st.Server)

	case OpAppend:
		data := pattern(op.Size, op.Seed)
		fd, err := fs.Open(op.Path, fsapi.OWrOnly|fsapi.OAppend, 0)
		if err != nil {
			return err
		}
		prev, _ := model.Size(op.Path)
		if _, err := fs.Write(fd, data); err != nil {
			fs.Close(fd)
			return err
		}
		if op.Sync {
			if err := fs.Fsync(fd); err != nil {
				fs.Close(fd)
				return err
			}
		}
		if err := fs.Close(fd); err != nil {
			return err
		}
		model.WriteAt(op.Path, prev, data)

	case OpOverwrite:
		data := pattern(op.Size, op.Seed)
		fd, err := fs.Open(op.Path, fsapi.OWrOnly, 0)
		if err != nil {
			return err
		}
		if _, err := fs.Pwrite(fd, data, op.Off); err != nil {
			fs.Close(fd)
			return err
		}
		if op.Sync {
			if err := fs.Fsync(fd); err != nil {
				fs.Close(fd)
				return err
			}
		}
		if err := fs.Close(fd); err != nil {
			return err
		}
		model.WriteAt(op.Path, op.Off, data)

	case OpTruncate:
		fd, err := fs.Open(op.Path, fsapi.OWrOnly, 0)
		if err != nil {
			return err
		}
		if err := fs.Ftruncate(fd, int64(op.Size)); err != nil {
			fs.Close(fd)
			return err
		}
		if err := fs.Close(fd); err != nil {
			return err
		}
		model.Truncate(op.Path, int64(op.Size))

	case OpRead:
		want, ok := model.Content(op.Path)
		if !ok {
			return fmt.Errorf("shadow lost track of %s", op.Path)
		}
		got, err := shadow.ReadAll(fs, op.Path, int64(len(want)))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("read returned %d bytes diverging from shadow (%d expected)", len(got), len(want))
		}

	case OpStatCheck:
		want, ok := model.Size(op.Path)
		if !ok {
			return fmt.Errorf("shadow lost track of %s", op.Path)
		}
		st, err := fs.Stat(op.Path)
		if err != nil {
			return err
		}
		if st.Size != want {
			return fmt.Errorf("stat size %d, shadow says %d", st.Size, want)
		}

	case OpReadDir:
		ents, err := fs.ReadDir(op.Path)
		if err != nil {
			return err
		}
		want := model.Children(op.Path)
		if len(ents) != len(want) {
			return fmt.Errorf("readdir found %d entries, shadow says %d", len(ents), len(want))
		}
		seen := make(map[string]bool, len(ents))
		for _, e := range ents {
			seen[e.Name] = true
		}
		for _, name := range want {
			if !seen[name] {
				return fmt.Errorf("readdir is missing %q", name)
			}
		}

	case OpRename:
		if err := fs.Rename(op.Path, op.Path2); err != nil {
			return err
		}
		model.Rename(op.Path, op.Path2)

	case OpUnlink:
		if err := fs.Unlink(op.Path); err != nil {
			return err
		}
		model.Unlink(op.Path)

	case OpRmdirCycle:
		if err := fs.Mkdir(op.Path, fsapi.MkdirOpt{}); err != nil {
			return err
		}
		if err := fs.Rmdir(op.Path); err != nil {
			return err
		}
		// The name must be reusable (the tombstone must not shadow it).
		if err := fs.Mkdir(op.Path, fsapi.MkdirOpt{}); err != nil {
			return fmt.Errorf("recreate after rmdir: %w", err)
		}
		if err := fs.Rmdir(op.Path); err != nil {
			return fmt.Errorf("re-rmdir: %w", err)
		}

	case OpPipeFork:
		return pipeForkExchange(p, op)

	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

// pipeForkExchange creates a pipe, forks a child that inherits both ends and
// writes a pattern into it, and reads the pattern back in the parent: pipe
// semantics and descriptor inheritance across fork, under message faults.
func pipeForkExchange(p *sched.Proc, op Op) error {
	fs := p.FS
	rd, wr, err := fs.Pipe()
	if err != nil {
		return fmt.Errorf("pipe: %w", err)
	}
	data := pattern(op.Size, op.Seed)
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
		return fmt.Errorf("fork: %w", err)
	}
	// Parent drops its write end so EOF arrives once the child closes.
	if err := fs.Close(wr); err != nil {
		return fmt.Errorf("close parent write end: %w", err)
	}
	var got []byte
	buf := make([]byte, 256)
	for {
		n, err := fs.Read(rd, buf)
		if err != nil {
			fs.Close(rd)
			return fmt.Errorf("pipe read: %w", err)
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if err := fs.Close(rd); err != nil {
		return fmt.Errorf("close read end: %w", err)
	}
	if status := p.Wait(child); status != 0 {
		return fmt.Errorf("pipe child exited %d", status)
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("pipe carried %d bytes, want %d (content diverged)", len(got), len(data))
	}
	return nil
}
