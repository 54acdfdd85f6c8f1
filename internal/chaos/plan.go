package chaos

import (
	"fmt"
	"strings"

	"repro/internal/repl"
)

// OpKind enumerates the POSIX operations the generator emits.
type OpKind uint8

// Generated operation kinds.
const (
	OpMkdir OpKind = iota
	OpCreate
	OpAppend
	OpOverwrite
	OpTruncate
	OpRead
	OpStatCheck
	OpReadDir
	OpRename
	OpUnlink
	OpRmdirCycle
	OpPipeFork
)

var opKindNames = [...]string{
	"mkdir", "create", "append", "overwrite", "truncate", "read",
	"stat", "readdir", "rename", "unlink", "rmdircycle", "pipefork",
}

// String names the op kind.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "unknown"
}

// Op is one generated POSIX operation. Paths are absolute; every proc's ops
// stay inside its own subtree (plus uniquely-named rename targets in the
// shared directory), which keeps concurrent execution conflict-free and the
// shadow model exact.
type Op struct {
	Kind  OpKind
	Path  string
	Path2 string // rename target
	Size  int    // bytes written (create/append/overwrite/pipefork) or new size (truncate)
	Off   int64  // overwrite offset
	Seed  uint64 // content pattern seed
	Sync  bool   // fsync before close (write ops)
}

// EventKind enumerates the fault-schedule events.
type EventKind uint8

// Scheduled event kinds.
const (
	EvCheckpoint EventKind = iota
	EvCheckpointAll
	EvCrash        // crash + recover, memory intact: recovery must be exact
	EvCrashLoseMem // crash + recover, DRAM partition wiped: tolerance rules apply
	EvAddServer
	EvRemoveServer
	EvMigrateCrash // crash a victim mid-migration, then recover + auto-resume
	EvFailover     // crash a server, then promote its replica (replication runs only)
)

var eventKindNames = [...]string{
	"checkpoint", "checkpoint-all", "crash", "crash-lose-mem",
	"add-server", "remove-server", "migrate-crash", "failover",
}

// String names the event kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one scheduled fault. Round r events fire at the quiescent
// boundary after round r's traffic completes, except Mid events
// (AddServer/RemoveServer only), which fire while round r's traffic is still
// running — migration under live load.
type Event struct {
	Round  int
	Kind   EventKind
	Server int    // victim (crash kinds, checkpoint, failover) or drain target (remove-server); -1 n/a
	Mid    bool   // fire concurrently with the round's traffic
	Stage  string // migrate-crash: protocol stage to kill at (freeze|pull|commit); failover: promotion stage at which the follower dies too (seal|publish)
	Victim int    // migrate-crash: the server killed mid-protocol
	Add    bool   // migrate-crash: interrupted migration is an add (else a drain)
	Lose   bool   // failover: the victim's crash wipes its DRAM partition
	Double bool   // failover: the follower is down too — promotion must fall back to log replay
}

// Plan is the fully-derived schedule of one chaos run: the op trace for
// every process and round, and the event schedule. Generating a Plan is a
// pure function of the Config — no wall clock, no map iteration, no shared
// state — so the same (seed, config) tuple yields a byte-identical plan on
// every run (see Encode).
type Plan struct {
	Cfg Config
	// Ops[round][proc] is the op list process `proc` executes in `round`.
	Ops [][][]Op
	// Events holds the fault schedule, ordered by round (generation order).
	Events []Event
}

// procState is the generator's prediction of one process's namespace.
type procState struct {
	dir     string
	files   []string
	sizes   map[string]int64
	subdirs []string
	nextID  int
}

// NewPlan derives the run's complete op trace and fault schedule from the
// configuration.
func NewPlan(cfg Config) *Plan {
	cfg = cfg.normalized()
	p := &Plan{Cfg: cfg}
	p.genOps()
	p.genEvents()
	return p
}

// genOps generates every process's per-round op list.
func (p *Plan) genOps() {
	cfg := p.Cfg
	p.Ops = make([][][]Op, cfg.Rounds)
	for r := range p.Ops {
		p.Ops[r] = make([][]Op, cfg.Procs)
	}
	for proc := 0; proc < cfg.Procs; proc++ {
		st := &procState{
			dir:   fmt.Sprintf("/chaos/p%02d", proc),
			sizes: make(map[string]int64),
		}
		r := newRng(cfg.Seed, 0x0B5+uint64(proc))
		for round := 0; round < cfg.Rounds; round++ {
			ops := make([]Op, 0, cfg.OpsPerRound)
			for len(ops) < cfg.OpsPerRound {
				ops = append(ops, p.genOp(r, st, proc, round))
			}
			p.Ops[round][proc] = ops
		}
	}
}

// genOp draws one valid operation given the process's predicted state.
func (p *Plan) genOp(r *rng, st *procState, proc, round int) Op {
	newPath := func(prefix string) string {
		st.nextID++
		return fmt.Sprintf("%s/%s%03d", st.dir, prefix, st.nextID)
	}
	pickFile := func() string { return st.files[r.intn(len(st.files))] }
	removeFile := func(path string) {
		for i, f := range st.files {
			if f == path {
				st.files = append(st.files[:i], st.files[i+1:]...)
				break
			}
		}
		delete(st.sizes, path)
	}

	// Nothing to mutate yet: create first.
	roll := r.intn(100)
	if len(st.files) == 0 && roll >= 25 {
		roll = 0
	}
	switch {
	case roll < 25: // create (occasionally inside a subdir)
		dir := st.dir
		if len(st.subdirs) > 0 && r.pct(30) {
			dir = st.subdirs[r.intn(len(st.subdirs))]
		}
		st.nextID++
		path := fmt.Sprintf("%s/f%03d", dir, st.nextID)
		size := 1 + r.intn(6000) // up to ~1.5 blocks
		st.files = append(st.files, path)
		st.sizes[path] = int64(size)
		return Op{Kind: OpCreate, Path: path, Size: size, Seed: r.next(), Sync: r.pct(20)}
	case roll < 37: // append
		path := pickFile()
		size := 1 + r.intn(3000)
		st.sizes[path] += int64(size)
		return Op{Kind: OpAppend, Path: path, Size: size, Seed: r.next(), Sync: r.pct(20)}
	case roll < 47: // overwrite at an offset (may extend)
		path := pickFile()
		cur := st.sizes[path]
		off := int64(r.intn(int(cur) + 1))
		size := 1 + r.intn(2000)
		if end := off + int64(size); end > cur {
			st.sizes[path] = end
		}
		return Op{Kind: OpOverwrite, Path: path, Off: off, Size: size, Seed: r.next(), Sync: r.pct(20)}
	case roll < 52: // truncate (shrink or grow)
		path := pickFile()
		size := r.intn(int(st.sizes[path]) + 1024)
		st.sizes[path] = int64(size)
		return Op{Kind: OpTruncate, Path: path, Size: size}
	case roll < 68: // read back and compare to the shadow
		return Op{Kind: OpRead, Path: pickFile()}
	case roll < 74: // stat and compare size
		return Op{Kind: OpStatCheck, Path: pickFile()}
	case roll < 79: // list own directory and compare entry set
		return Op{Kind: OpReadDir, Path: st.dir}
	case roll < 85: // rename, sometimes into the shared directory
		from := pickFile()
		if r.pct(30) {
			// Retire the file into the shared tree under a unique name: the
			// two-server rename protocol plus cross-shard traffic.
			st.nextID++
			to := fmt.Sprintf("/chaos/mv-p%02d-%03d", proc, st.nextID)
			removeFile(from)
			return Op{Kind: OpRename, Path: from, Path2: to}
		}
		to := newPath("r")
		st.sizes[to] = st.sizes[from]
		removeFile(from)
		st.files = append(st.files, to)
		return Op{Kind: OpRename, Path: from, Path2: to}
	case roll < 91: // unlink
		path := pickFile()
		removeFile(path)
		return Op{Kind: OpUnlink, Path: path}
	case roll < 94: // mkdir a subdir (a later create may land in it)
		st.nextID++
		dir := fmt.Sprintf("%s/d%03d", st.dir, st.nextID)
		st.subdirs = append(st.subdirs, dir)
		return Op{Kind: OpMkdir, Path: dir}
	case roll < 97: // mkdir+rmdir cycle: the tombstone must not resurrect
		return Op{Kind: OpRmdirCycle, Path: newPath("tmp")}
	default: // pipe + fork: fd inheritance and pipe semantics under chaos
		return Op{Kind: OpPipeFork, Size: 64 + r.intn(1500), Seed: r.next()}
	}
}

// genEvents generates the fault schedule, tracking predicted membership so
// every event is valid when it fires.
func (p *Plan) genEvents() {
	cfg := p.Cfg
	r := newRng(cfg.Seed, 0xE7E)
	numServers := cfg.Servers
	members := make([]int, cfg.Servers)
	for i := range members {
		members[i] = i
	}
	removeMember := func(id int) {
		for i, m := range members {
			if m == id {
				members = append(members[:i], members[i+1:]...)
				return
			}
		}
	}

	serversAt := make([]int, cfg.Rounds)
	for round := 0; round < cfg.Rounds; round++ {
		// Mid-round membership change: migration runs against live traffic.
		if r.pct(35) {
			if numServers < cfg.MaxServers && (len(members) < 2 || r.pct(60)) {
				members = append(members, numServers)
				numServers++
				p.Events = append(p.Events, Event{Round: round, Kind: EvAddServer, Server: -1, Mid: true})
			} else if len(members) > 1 {
				id := members[r.intn(len(members))]
				removeMember(id)
				p.Events = append(p.Events, Event{Round: round, Kind: EvRemoveServer, Server: id, Mid: true})
			}
		}

		// One or two quiescent-boundary events per round.
		n := 1 + r.intn(2)
		for i := 0; i < n; i++ {
			switch roll := r.intn(100); {
			case roll < 18:
				p.Events = append(p.Events, Event{Round: round, Kind: EvCheckpoint, Server: r.intn(numServers)})
			case roll < 28:
				p.Events = append(p.Events, Event{Round: round, Kind: EvCheckpointAll, Server: -1})
			case roll < 55:
				p.Events = append(p.Events, Event{Round: round, Kind: EvCrash, Server: r.intn(numServers)})
			case roll < 70:
				p.Events = append(p.Events, Event{Round: round, Kind: EvCrashLoseMem, Server: r.intn(numServers)})
			case roll < 80 && numServers < cfg.MaxServers:
				members = append(members, numServers)
				numServers++
				p.Events = append(p.Events, Event{Round: round, Kind: EvAddServer, Server: -1})
			case roll < 88 && len(members) > 1:
				id := members[r.intn(len(members))]
				removeMember(id)
				p.Events = append(p.Events, Event{Round: round, Kind: EvRemoveServer, Server: id})
			case roll < 100 && len(members) > 0:
				// Crash a victim mid-migration; the recovery path must
				// resume and converge the interrupted protocol.
				stage := []string{"freeze", "pull", "commit"}[r.intn(3)]
				victim := members[r.intn(len(members))]
				if numServers < cfg.MaxServers && (len(members) < 3 || r.pct(70)) {
					members = append(members, numServers)
					numServers++
					p.Events = append(p.Events, Event{Round: round, Kind: EvMigrateCrash, Server: -1, Stage: stage, Victim: victim, Add: true})
				} else if len(members) > 2 {
					target := members[r.intn(len(members))]
					if target == victim {
						// The drain target must outlive the protocol victim.
						for _, m := range members {
							if m != victim {
								target = m
								break
							}
						}
					}
					removeMember(target)
					p.Events = append(p.Events, Event{Round: round, Kind: EvMigrateCrash, Server: target, Stage: stage, Victim: victim, Add: false})
				} else {
					p.Events = append(p.Events, Event{Round: round, Kind: EvCheckpointAll, Server: -1})
				}
			default:
				p.Events = append(p.Events, Event{Round: round, Kind: EvCheckpoint, Server: r.intn(numServers)})
			}
		}
		serversAt[round] = numServers
	}

	// Failover events ride on their own rng stream, drawn only when
	// replication is on: a replication-off plan consumes exactly the draws
	// it always did, so every pre-replication three-token tuple still
	// derives a byte-identical schedule.
	if cfg.Replication == repl.Off {
		return
	}
	rf := newRng(cfg.Seed, 0xFA11)
	for round := 0; round < cfg.Rounds; round++ {
		if !rf.pct(55) {
			continue
		}
		ev := Event{Round: round, Kind: EvFailover, Server: rf.intn(serversAt[round])}
		ev.Lose = rf.pct(35)
		switch rf.intn(6) {
		case 0:
			// The follower is already down: promotion must fall back.
			ev.Double = true
		case 1:
			// The follower dies exactly at the seal: fallback again.
			ev.Stage = "seal"
		case 2:
			// The follower dies after the seal, mid-promotion: the
			// promotion's transition stays pending and must converge once
			// the follower recovers.
			ev.Stage = "publish"
		}
		p.Events = append(p.Events, ev)
	}
}

// Encode renders the plan as a canonical byte stream: the determinism
// acceptance check is that two plans for the same (seed, config) tuple are
// byte-identical, and a failing run's plan can be diffed against its repro.
func (p *Plan) Encode() []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos-plan tuple=%s cores=%d servers=%d max=%d procs=%d rounds=%d ops=%d delay=%d/%d%% dup=%d%%\n",
		p.Cfg.Tuple(), p.Cfg.Cores, p.Cfg.Servers, p.Cfg.MaxServers, p.Cfg.Procs,
		p.Cfg.Rounds, p.Cfg.OpsPerRound, p.Cfg.MaxDelay, p.Cfg.DelayPercent,
		p.Cfg.DupPercent)
	for round := range p.Ops {
		for proc := range p.Ops[round] {
			for _, op := range p.Ops[round][proc] {
				fmt.Fprintf(&sb, "r%d p%d %s path=%s", round, proc, op.Kind, op.Path)
				if op.Path2 != "" {
					fmt.Fprintf(&sb, " to=%s", op.Path2)
				}
				if op.Size != 0 {
					fmt.Fprintf(&sb, " size=%d", op.Size)
				}
				if op.Off != 0 {
					fmt.Fprintf(&sb, " off=%d", op.Off)
				}
				if op.Seed != 0 {
					fmt.Fprintf(&sb, " seed=%d", op.Seed)
				}
				if op.Sync {
					sb.WriteString(" sync")
				}
				sb.WriteByte('\n')
			}
		}
	}
	for _, ev := range p.Events {
		fmt.Fprintf(&sb, "event r%d %s srv=%d", ev.Round, ev.Kind, ev.Server)
		if ev.Mid {
			sb.WriteString(" mid")
		}
		if ev.Kind == EvMigrateCrash {
			fmt.Fprintf(&sb, " stage=%s victim=%d add=%v", ev.Stage, ev.Victim, ev.Add)
		}
		if ev.Kind == EvFailover {
			fmt.Fprintf(&sb, " lose=%v double=%v", ev.Lose, ev.Double)
			if ev.Stage != "" {
				fmt.Fprintf(&sb, " stage=%s", ev.Stage)
			}
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}
