// Command hare-chaos runs the deterministic chaos harness (DESIGN.md §10)
// outside the test suite: long local soaks over many seeds and technique
// configurations, and one-line reproduction of a failing run.
//
// Usage:
//
//	hare-chaos [-seeds N] [-seed-start S] [-configs N] [-duration D] [-v]
//	           [-procs N] [-rounds N] [-ops N] [-cores N] [-servers N]
//	           [-max-servers N] [-delay-pct P] [-dup-pct P] [-max-delay C]
//	           [-repl sync|async] [-parallel] [-trace-dir D]
//	hare-chaos -repro seed,techbits,policy[,replmode] [-dump-plan] [-trace-dir D]
//
// The default invocation sweeps -seeds seeds across -configs sampled
// technique/policy configurations and reports every failure as a
// `seed,techbits,policy` tuple. With -repl the deployment runs shard
// replication in the named mode and the schedule gains failover events (the
// tuple grows a fourth token). With -parallel every run executes under the
// parallel virtual-time engine (DESIGN.md §13); the tuple does not encode the
// engine — rerun the same tuple with and without the flag to compare them.
// With -duration the sweep repeats with fresh seeds until the wall-clock
// budget is spent (a soak). With -repro the named tuple is rebuilt
// bit-for-bit and run once — the same plan the failing run executed,
// byte-identical.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		seeds      = flag.Int("seeds", 25, "number of seeds per configuration")
		seedStart  = flag.Uint64("seed-start", 1, "first seed value")
		configs    = flag.Int("configs", 8, "sampled technique/policy configurations (0 = the full 64-point matrix)")
		duration   = flag.Duration("duration", 0, "soak: repeat with fresh seeds until this much wall-clock time has passed")
		verbose    = flag.Bool("v", false, "print a line for every run, not only failures")
		repro      = flag.String("repro", "", "run exactly one failing tuple (seed,techbits,policy)")
		dumpPlan   = flag.Bool("dump-plan", false, "with -repro: print the derived op trace and fault schedule before running")
		procs      = flag.Int("procs", 0, "worker processes per round (0 = default)")
		rounds     = flag.Int("rounds", 0, "traffic rounds per run (0 = default)")
		ops        = flag.Int("ops", 0, "ops per process per round (0 = default)")
		cores      = flag.Int("cores", 0, "simulated cores (0 = default)")
		servers    = flag.Int("servers", 0, "initial file servers (0 = default)")
		maxServers = flag.Int("max-servers", 0, "server growth headroom (0 = default)")
		delayPct   = flag.Int("delay-pct", -1, "percent of messages delayed (-1 = default)")
		dupPct     = flag.Int("dup-pct", -1, "percent of idempotent requests duplicated (-1 = default)")
		maxDelay   = flag.Int64("max-delay", -1, "jitter bound in cycles (-1 = default)")
		replMode   = flag.String("repl", "", "run with shard replication (sync or async): failover events join the schedule")
		parallel   = flag.Bool("parallel", false, "run every tuple under the parallel virtual-time engine (DESIGN.md §13)")
		traceDir   = flag.String("trace-dir", "", "record a full request trace per run and dump failing runs' span trees here (Chrome JSON + canonical encoding)")
	)
	flag.Parse()

	base := chaos.DefaultConfig(0)
	if *procs > 0 {
		base.Procs = *procs
	}
	if *rounds > 0 {
		base.Rounds = *rounds
	}
	if *ops > 0 {
		base.OpsPerRound = *ops
	}
	if *cores > 0 {
		base.Cores = *cores
	}
	if *servers > 0 {
		base.Servers = *servers
	}
	if *maxServers > 0 {
		base.MaxServers = *maxServers
	}
	if *delayPct >= 0 {
		base.DelayPercent = *delayPct
	}
	if *dupPct >= 0 {
		base.DupPercent = *dupPct
	}
	if *maxDelay >= 0 {
		base.MaxDelay = sim.Cycles(*maxDelay)
	}
	if *replMode != "" {
		m, ok := repl.ParseMode(*replMode)
		if !ok || m == repl.Off {
			fmt.Fprintf(os.Stderr, "hare-chaos: -repl %q must be sync or async\n", *replMode)
			os.Exit(2)
		}
		base.Replication = m
	}
	base.Parallel = *parallel

	if *repro != "" {
		seed, tech, pol, rmode, err := chaos.ParseTuple(*repro)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hare-chaos:", err)
			os.Exit(2)
		}
		cfg := chaos.WithTuple(base, seed, tech, pol, rmode)
		if *traceDir != "" {
			cfg.Trace = trace.Config{Sample: 1, Ring: 1 << 18}
		}
		if *dumpPlan {
			os.Stdout.Write(chaos.NewPlan(cfg).Encode())
		}
		rep, err := chaos.Run(cfg)
		if *traceDir != "" && rep != nil {
			if p, derr := chaos.DumpTrace(*traceDir, cfg.Tuple(), rep.Spans); derr == nil {
				fmt.Printf("trace: %s\n", p)
			} else {
				fmt.Fprintln(os.Stderr, "hare-chaos: trace dump:", derr)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("PASS tuple=%s ops=%d events=%d delayed=%d dups=%d epoch=%d servers=%d\n",
			cfg.Tuple(), rep.Ops, rep.Events, rep.Faults.Delayed, rep.Faults.Duplicated, rep.Epoch, rep.Servers)
		return
	}

	var cfgs []chaos.Config
	if *configs <= 0 {
		cfgs = chaos.MatrixConfigs(base)
	} else {
		cfgs = chaos.SampleConfigs(base, *configs)
	}

	out := os.Stdout
	logw := io.Writer(io.Discard)
	if *verbose {
		logw = out
	}

	start := time.Now()
	nextSeed := *seedStart
	total, failed := 0, []string{}
	for {
		seedList := make([]uint64, *seeds)
		for i := range seedList {
			seedList[i] = nextSeed
			nextSeed++
		}
		failed = append(failed, chaos.RunMatrixTraced(logw, cfgs, seedList, *traceDir)...)
		total += len(cfgs) * len(seedList)
		if *duration == 0 || time.Since(start) >= *duration {
			break
		}
	}

	fmt.Fprintf(out, "hare-chaos: %d runs (%d configs), %d failures, %s\n",
		total, len(cfgs), len(failed), time.Since(start).Round(time.Millisecond))
	if len(failed) > 0 {
		for _, tuple := range failed {
			fmt.Fprintf(out, "FAIL tuple=%s\n      repro: hare-chaos -repro %s\n", tuple, tuple)
		}
		os.Exit(1)
	}
}
