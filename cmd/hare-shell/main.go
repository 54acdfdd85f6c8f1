// Command hare-shell is a small interactive shell over a Hare deployment,
// useful for exploring the file system's behaviour by hand (distributed
// directories, inode placement, server statistics).
//
// Usage:
//
//	hare-shell [-cores N] [-servers N] [-maxservers N] [-ring] [-split]
//	           [-repl mode] [-trace N]
//
// Commands: help, ls, tree, cat, write, append, mkdir, mkdir -d, rm, rmdir,
// mv, stat, cd, pwd, core, servers, top, stats, addserver, rmserver,
// replicas, failover, exit.
//
// With -maxservers headroom the fleet is elastic: addserver grows it online
// (directory shards migrate to the new member) and rmserver drains one; the
// servers command prints the live placement epoch, per-server shard counts,
// load and share of all requests served, the busiest server's load over the
// mean, migration traffic, and a mark on the shell client's designated nearby
// server (DESIGN.md §7 "Where a new inode goes").
//
// With -repl sync the deployment runs durability plus WAL-shipped
// follower replicas (DESIGN.md §12): replicas shows each primary's follower
// and shipping horizons, and `failover N` crashes server N (if it is still
// up) and promotes its replica, printing the stall and the published epoch.
//
// Tracing is on by default (every op; -trace N samples 1-in-N, -trace 0
// turns it off): top shows live per-server queue depth, shard counts and
// service/queueing percentiles, and stats shows this shell's client counters
// (request messages, batched sub-ops, creates that brought their file's first
// block and how many of those were closed unwritten — DESIGN.md §7) and per-op
// latency percentiles as seen by this shell's operations.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		cores      = flag.Int("cores", 8, "number of cores in the simulated machine")
		servers    = flag.Int("servers", 0, "number of file servers (default: one per core)")
		maxServers = flag.Int("maxservers", 0, "server-count ceiling for online growth (default: no headroom)")
		ring       = flag.Bool("ring", false, "place directory shards by consistent hashing instead of modulo")
		split      = flag.Bool("split", false, "dedicate cores to the file servers instead of timesharing")
		replMode   = flag.String("repl", "", "run with durability and shard replication (sync): enables replicas/failover")
		traceN     = flag.Int("trace", 1, "trace 1-in-N operations for top/stats (0 = tracing off)")
	)
	flag.Parse()

	policy := place.PolicyModulo
	if *ring {
		policy = place.PolicyRing
	}
	cfg := core.Config{
		Cores:       *cores,
		Servers:     *servers,
		MaxServers:  *maxServers,
		Timeshare:   !*split,
		Techniques:  core.AllTechniques(),
		Placement:   sched.PolicyRoundRobin,
		PlacePolicy: policy,
		Trace:       trace.Config{Sample: *traceN},
	}
	if *replMode != "" {
		m, err := repl.ParseMode(*replMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hare-shell: -repl:", err)
			os.Exit(1)
		}
		cfg.Durability = core.Durability{Enabled: m != repl.Off}
		cfg.Replication = repl.Config{Mode: m}
	}
	sys, err := core.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hare-shell:", err)
		os.Exit(1)
	}
	sys.Start()
	defer sys.Stop()

	sh := &shell{sys: sys, core: sys.AppCores()[0]}
	sh.cli = sys.NewClient(sh.core)
	fmt.Printf("hare-shell: %d cores, %d servers (%s). Type 'help'.\n",
		sys.Config().Cores, sys.Config().Servers, mode(sys.Config().Timeshare))

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("hare:%s> ", sh.cli.Getcwd())
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func mode(timeshare bool) string {
	if timeshare {
		return "timeshare"
	}
	return "split"
}

type shell struct {
	sys  *core.System
	cli  *client.Client
	core int
}

func (s *shell) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Println("commands: ls [path] | tree [path] | cat file | write file text... | append file text... |")
		fmt.Println("          mkdir [-d] dir | rm file | rmdir dir | mv old new | stat path | cd dir | pwd |")
		fmt.Println("          core N | servers | top | stats | addserver | rmserver N |")
		fmt.Println("          replicas | failover N | exit")
		return nil
	case "top":
		return s.top()
	case "stats":
		return s.latStats()
	case "pwd":
		fmt.Println(s.cli.Getcwd())
		return nil
	case "cd":
		return s.cli.Chdir(arg(args, 0, "/"))
	case "ls":
		return s.list(arg(args, 0, "."), false, "")
	case "tree":
		return s.list(arg(args, 0, "."), true, "")
	case "cat":
		if len(args) < 1 {
			return fmt.Errorf("usage: cat file")
		}
		return s.cat(args[0])
	case "write", "append":
		if len(args) < 2 {
			return fmt.Errorf("usage: %s file text...", cmd)
		}
		return s.write(args[0], strings.Join(args[1:], " "), cmd == "append")
	case "mkdir":
		dist := false
		if len(args) > 0 && args[0] == "-d" {
			dist = true
			args = args[1:]
		}
		if len(args) < 1 {
			return fmt.Errorf("usage: mkdir [-d] dir")
		}
		return s.cli.Mkdir(args[0], fsapi.MkdirOpt{Distributed: dist})
	case "rm":
		if len(args) < 1 {
			return fmt.Errorf("usage: rm file")
		}
		return s.cli.Unlink(args[0])
	case "rmdir":
		if len(args) < 1 {
			return fmt.Errorf("usage: rmdir dir")
		}
		return s.cli.Rmdir(args[0])
	case "mv":
		if len(args) < 2 {
			return fmt.Errorf("usage: mv old new")
		}
		return s.cli.Rename(args[0], args[1])
	case "stat":
		if len(args) < 1 {
			return fmt.Errorf("usage: stat path")
		}
		st, err := s.cli.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s, %d bytes, nlink %d, mode %o, server %d, inode %d\n",
			args[0], st.Type, st.Size, st.Nlink, st.Mode, st.Server, st.Ino)
		return nil
	case "core":
		if len(args) < 1 {
			return fmt.Errorf("usage: core N")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 || n >= s.sys.Config().Cores {
			return fmt.Errorf("core must be in [0, %d)", s.sys.Config().Cores)
		}
		cwd := s.cli.Getcwd()
		s.core = n
		s.cli = s.sys.NewClient(n)
		return s.cli.Chdir(cwd)
	case "servers":
		member := make(map[int]bool)
		for _, m := range s.sys.Members() {
			member[m] = true
		}
		fmt.Printf("epoch %d, policy %s, members %v\n",
			s.sys.Epoch(), s.sys.PlacementPolicy(), s.sys.Members())
		loads := s.sys.ServerLoads()
		var all uint64
		for _, n := range loads {
			all += n
		}
		for i, st := range s.sys.ServerStats() {
			role := "member"
			if !member[i] {
				role = "drained"
			}
			share := 0.0
			if all > 0 {
				share = 100 * float64(loads[i]) / float64(all)
			}
			mark := " "
			if i == s.cli.NearServer() {
				mark = "*"
			}
			fmt.Printf("server %2d:%s%-7s %6d ops (%5.1f%%), %4d entries, %d invalidations", i, mark, role, loads[i], share, st.Entries, st.Invalidations)
			if st.MigInEntries > 0 || st.MigOutEntries > 0 {
				fmt.Printf(", migrated %d in / %d out", st.MigInEntries, st.MigOutEntries)
			}
			fmt.Println()
		}
		fmt.Printf("load imbalance (busiest server's requests over the mean): %.2f; * = where this shell's creates away from their entries go\n",
			stats.Imbalance(loads))
		return nil
	case "addserver":
		id, err := s.sys.AddServer(s.cli)
		if err != nil {
			return err
		}
		fmt.Printf("server %d joined; epoch now %d\n", id, s.sys.Epoch())
		return nil
	case "replicas":
		return s.replicas()
	case "failover":
		if len(args) < 1 {
			return fmt.Errorf("usage: failover N")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("failover: bad server id %q", args[0])
		}
		return s.failover(n)
	case "rmserver":
		if len(args) < 1 {
			return fmt.Errorf("usage: rmserver N")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("rmserver: bad server id %q", args[0])
		}
		if err := s.sys.RemoveServer(s.cli, n); err != nil {
			return err
		}
		fmt.Printf("server %d drained; epoch now %d\n", n, s.sys.Epoch())
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

func arg(args []string, i int, def string) string {
	if i < len(args) {
		return args[i]
	}
	return def
}

func (s *shell) list(path string, recurse bool, indent string) error {
	ents, err := s.cli.ReadDir(path)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		fmt.Printf("%s%-30s %s\n", indent, ent.Name, ent.Type)
		if recurse && ent.Type == fsapi.TypeDir {
			if err := s.list(path+"/"+ent.Name, true, indent+"  "); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *shell) cat(path string) error {
	fd, err := s.cli.Open(path, fsapi.ORdOnly, 0)
	if err != nil {
		return err
	}
	defer s.cli.Close(fd)
	buf := make([]byte, 4096)
	for {
		n, err := s.cli.Read(fd, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		os.Stdout.Write(buf[:n])
	}
	fmt.Println()
	return nil
}

// top is the live per-server view: queue depth, shard count, ops served,
// and — when tracing is on — service and queueing percentiles.
func (s *shell) top() error {
	fmt.Printf("epoch %d, %d servers, clock %d cycles\n",
		s.sys.Epoch(), s.sys.NumServers(), s.sys.MaxServerClock())
	tr := s.sys.Tracer()
	var svc, queue map[int]stats.Quantiles
	if tr != nil {
		svc, queue = tr.ServerQuantiles()
	}
	depths := s.sys.QueueDepths()
	for i, st := range s.sys.ServerStats() {
		var total uint64
		for _, n := range st.Ops {
			total += n
		}
		depth := 0
		if i < len(depths) {
			depth = depths[i]
		}
		fmt.Printf("server %2d: queue %3d, %6d ops, %4d entries", i, depth, total, st.Entries)
		if q, ok := svc[i]; ok && q.N > 0 {
			fmt.Printf(", service p50/p99 %d/%d cyc", q.P50, q.P99)
		}
		if q, ok := queue[i]; ok && q.N > 0 {
			fmt.Printf(", queued p50/p99 %d/%d cyc", q.P50, q.P99)
		}
		fmt.Println()
	}
	if tr == nil {
		fmt.Println("(tracing off: rerun without -trace 0 for latency percentiles)")
	}
	return nil
}

// latStats prints this shell's client counters and the per-op latency
// percentiles from the tracer's histograms.
func (s *shell) latStats() error {
	cs := s.cli.Stats()
	fmt.Printf("this client: %d request messages, %d batched sub-ops, %d creates brought their first block (%d closed unwritten)\n",
		cs.RPCs, cs.BatchedOps, cs.FirstBlocks, cs.FirstBlockMisses)
	tr := s.sys.Tracer()
	if tr == nil {
		return fmt.Errorf("tracing is off (rerun without -trace 0)")
	}
	lat := tr.OpQuantiles()
	if len(lat) == 0 {
		fmt.Println("no traced operations yet")
		return nil
	}
	fmt.Printf("%-10s %8s %10s %10s %10s %10s\n", "op", "n", "p50", "p95", "p99", "max")
	for _, op := range tr.OpNames() {
		q := lat[op]
		fmt.Printf("%-10s %8d %10d %10d %10d %10d\n", op, q.N, q.P50, q.P95, q.P99, q.Max)
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Printf("(span ring dropped %d spans; histograms kept counting)\n", d)
	}
	return nil
}

// replicas prints each primary's follower and its shipping horizons: the
// last record the primary committed, the horizon the follower has acked,
// the lag between them, and the ship/resync message counts.
func (s *shell) replicas() error {
	rc := s.sys.Replication()
	if !rc.Enabled() {
		return fmt.Errorf("replication is off (rerun with -repl sync)")
	}
	fmt.Printf("replication %s, epoch %d\n", rc.Mode, s.sys.Epoch())
	for _, rs := range s.sys.ReplicaStats() {
		state := "up"
		if s.sys.Crashed(rs.Server) {
			state = "down"
		}
		fmt.Printf("server %2d (%s): follower %2d, lsn %6d, durable %6d, lag %4d, %6d ships, %d resyncs\n",
			rs.Server, state, rs.Follower, rs.LastLSN, rs.Durable, rs.Lag(), rs.Ships, rs.Resyncs)
	}
	return nil
}

// failover crashes server n (if it is still up) and promotes its replica,
// reporting the promotion stall, the published epoch, and any acked records
// the promotion lost (always zero under sync).
func (s *shell) failover(n int) error {
	if !s.sys.Replication().Enabled() {
		return fmt.Errorf("replication is off (rerun with -repl sync)")
	}
	if !s.sys.Crashed(n) {
		if err := s.sys.Crash(s.cli, n); err != nil {
			return err
		}
		fmt.Printf("server %d crashed\n", n)
	}
	rep, err := s.sys.Failover(s.cli, n)
	if err != nil {
		return err
	}
	how := fmt.Sprintf("promoted replica from follower %d", rep.Follower)
	if rep.Fallback {
		how = "replica unusable; rebuilt by WAL replay"
	}
	fmt.Printf("server %d back up: %s\n", rep.Server, how)
	fmt.Printf("  stall %.3f ms (%d cycles), epoch now %d, lsn %d/%d durable, %d acked records lost\n",
		s.sys.Seconds(rep.StallCycles)*1000, rep.StallCycles, rep.Epoch,
		rep.DurableLSN, rep.LastLSN, rep.LostRecords)
	return nil
}

func (s *shell) write(path, text string, appendMode bool) error {
	flags := fsapi.OCreate | fsapi.OWrOnly
	if appendMode {
		flags |= fsapi.OAppend
	} else {
		flags |= fsapi.OTrunc
	}
	fd, err := s.cli.Open(path, flags, fsapi.Mode644)
	if err != nil {
		return err
	}
	defer s.cli.Close(fd)
	_, err = s.cli.Write(fd, []byte(text))
	return err
}
