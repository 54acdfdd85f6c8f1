// Package bench is the experiment harness: it builds file system backends
// (Hare in its various configurations, the Linux ramfs baseline, and the
// user-space NFS baseline), runs the paper's benchmark suite against them in
// virtual time, and regenerates every table and figure of the evaluation
// section (§5).
package bench

import (
	"fmt"

	"repro/internal/baseline/ramfs"
	"repro/internal/baseline/unfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Backend is one running file system deployment that workloads can run on.
type Backend struct {
	Name  string
	Procs sched.System
	Cores []int
	// Now returns the deployment's completion-time watermark (the latest
	// virtual time at which any process has exited).
	Now func() sim.Cycles
	// Seconds converts cycles to seconds under the deployment's cost model.
	Seconds func(sim.Cycles) float64
	// Close shuts the deployment down.
	Close func()
	// Faults exposes crash/recover/checkpoint on backends that support
	// fault injection (Hare with durability enabled); nil otherwise.
	Faults workload.FaultInjector
	// WalStats reports per-server write-ahead-log counters; nil when the
	// backend has no durability subsystem.
	WalStats func() []wal.Stats
	// Econ reports the deployment's cumulative message-economy counters;
	// nil on backends without a message layer (the baselines).
	Econ func() stats.Economy
	// Loads reports cumulative requests served per file server (for the
	// load-imbalance metric); nil on the baselines.
	Loads func() []uint64
	// Elastic exposes online server add/drain on backends configured with
	// growth headroom (Hare with MaxServers > Servers); nil otherwise.
	Elastic workload.ElasticController
	// Tracer is the deployment's request tracer (DESIGN.md §11); nil when
	// tracing is disabled or the backend has no trace support.
	Tracer *trace.Tracer
	// Gate reports the parallel engine's counters (DESIGN.md §13); nil
	// under the serialized engine.
	Gate func() sim.GateStats
}

// sysFaults adapts core.System to the workload fault-injection interface.
type sysFaults struct{ sys *core.System }

func (f sysFaults) NumServers() int             { return f.sys.NumServers() }
func (f sysFaults) Checkpoint(server int) error { return f.sys.Checkpoint(server) }
func (f sysFaults) Crash(server int) error      { return f.sys.Crash(server) }
func (f sysFaults) Recover(server int) error {
	_, err := f.sys.Recover(server)
	return err
}

// Factory builds a fresh backend for a single measurement, using the given
// exec placement policy (the paper selects the policy per benchmark).
type Factory func(placement sched.Policy) (*Backend, error)

// HareOptions selects a Hare deployment shape.
type HareOptions struct {
	Cores      int
	Servers    int  // 0 means one server per core
	Timeshare  bool // servers share cores with applications
	Techniques core.Techniques
	Seed       uint64
	Durability core.Durability

	// MaxServers > Servers gives the deployment growth headroom and
	// exposes the elastic controller to workloads; PlacePolicy selects
	// how directory-entry shards are placed (DESIGN.md §9).
	MaxServers  int
	PlacePolicy place.Policy

	// Trace configures request tracing; the zero value keeps it off and
	// the deployment's virtual timeline untouched (DESIGN.md §11).
	Trace trace.Config

	// Parallel installs the parallel virtual-time engine (DESIGN.md §13)
	// before any workload runs: servers advance concurrently, gated by the
	// conservative lane frontiers, instead of serializing on one global
	// virtual-time chain. Incompatible with Replication.
	Parallel bool
}

// DefaultHare returns the standard Hare deployment used throughout the
// evaluation: n cores, timesharing, every technique enabled.
func DefaultHare(cores int) HareOptions {
	return HareOptions{Cores: cores, Servers: cores, Timeshare: true, Techniques: core.AllTechniques()}
}

// HareFactory returns a Factory that builds Hare deployments with the given
// options.
func HareFactory(opts HareOptions) Factory {
	return func(placement sched.Policy) (*Backend, error) {
		cfg := core.Config{
			Cores:           opts.Cores,
			Servers:         opts.Servers,
			Timeshare:       opts.Timeshare,
			Techniques:      opts.Techniques,
			Placement:       placement,
			Seed:            opts.Seed,
			RootDistributed: false,
			Durability:      opts.Durability,
			MaxServers:      opts.MaxServers,
			PlacePolicy:     opts.PlacePolicy,
			Trace:           opts.Trace,
		}
		if cfg.Servers == 0 {
			cfg.Servers = cfg.Cores
		}
		sys, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: building hare backend: %w", err)
		}
		sys.Start()
		name := fmt.Sprintf("hare(%dc/%ds", cfg.Cores, cfg.Servers)
		if cfg.Timeshare {
			name += ",timeshare)"
		} else {
			name += ",split)"
		}
		if opts.Parallel {
			if err := sys.SetParallel(true); err != nil {
				sys.Stop()
				return nil, fmt.Errorf("bench: enabling parallel engine: %w", err)
			}
			name += "+par"
		}
		var gate func() sim.GateStats
		if g := sys.Network().Gate(); g != nil {
			gate = g.Stats
		}
		b := &Backend{
			Name:    name,
			Procs:   sys.Procs(),
			Cores:   sys.AppCores(),
			Now:     sys.Procs().MaxEndTime,
			Seconds: sys.Seconds,
			Close:   sys.Stop,
			Econ:    sys.MessageEconomy,
			Loads:   sys.ServerLoads,
			Tracer:  sys.Tracer(),
			Gate:    gate,
		}
		if cfg.MaxServers > cfg.Servers {
			b.Name += "+elastic"
			b.Elastic = sys
		}
		if cfg.Durability.Enabled {
			b.Name += "+wal"
			b.Faults = sysFaults{sys}
			b.WalStats = sys.WalStats
		}
		return b, nil
	}
}

// RamfsFactory returns a Factory for the cache-coherent shared-memory
// baseline ("linux ramfs" in Figure 8, "linux" in Figure 15).
func RamfsFactory(cores int) Factory {
	return func(placement sched.Policy) (*Backend, error) {
		machine := sim.NewMachine(sim.TopologyForCores(cores), sim.DefaultCostModel())
		fs := ramfs.New(machine)
		appCores := make([]int, cores)
		for i := range appCores {
			appCores[i] = i
		}
		procs := sched.NewSMPSystem(sched.SMPConfig{
			Machine:  machine,
			AppCores: appCores,
			Policy:   placement,
			NewClient: func(c int) fsapi.Client {
				return fs.NewClient(c)
			},
		})
		return &Backend{
			Name:    fmt.Sprintf("linux-ramfs(%dc)", cores),
			Procs:   procs,
			Cores:   appCores,
			Now:     procs.MaxEndTime,
			Seconds: machine.Cost.Seconds,
			Close:   func() {},
		}, nil
	}
}

// UnfsFactory returns a Factory for the user-space NFS baseline (UNFS3 in
// Figure 8). The server is a single user-space process; clients reach it
// through the loopback interface and cannot share file descriptors.
func UnfsFactory(cores int) Factory {
	return func(placement sched.Policy) (*Backend, error) {
		machine := sim.NewMachine(sim.TopologyForCores(cores), sim.DefaultCostModel())
		sys := unfs.New(machine)
		appCores := make([]int, cores)
		for i := range appCores {
			appCores[i] = i
		}
		procs := sched.NewSMPSystem(sched.SMPConfig{
			Machine:  machine,
			AppCores: appCores,
			Policy:   placement,
			NewClient: func(c int) fsapi.Client {
				return sys.NewClient(c)
			},
		})
		return &Backend{
			Name:    fmt.Sprintf("linux-unfs(%dc)", cores),
			Procs:   procs,
			Cores:   appCores,
			Now:     procs.MaxEndTime,
			Seconds: machine.Cost.Seconds,
			Close:   func() {},
		}, nil
	}
}
