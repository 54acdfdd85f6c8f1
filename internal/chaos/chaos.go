// Package chaos is the deterministic fault-schedule injection and
// model-based POSIX conformance harness (DESIGN.md §10).
//
// A chaos run is fully determined by a (seed, config) tuple. From the seed
// the harness derives, up front and purely:
//
//   - an op trace: a randomized POSIX program (create/write/read/rename/
//     unlink/mkdir/readdir/fsync/truncate/pipe+fork) for each of several
//     client processes, each confined to its own subtree of a shared
//     distributed directory so concurrent execution stays conflict-free;
//
//   - an event schedule: Crash / CrashLosingMemory+Recover, Checkpoint,
//     AddServer / RemoveServer and crash-mid-migration events fired at
//     quiescent round boundaries (membership changes may also fire mid-round,
//     concurrently with traffic);
//
//   - a message fault plan: seeded delivery jitter (bounded reordering) and
//     duplicate delivery of idempotent requests, installed on the simulated
//     network (msg.FaultPlan).
//
// While the trace runs, every read and stat is checked against a flat shadow
// model (internal/shadow), and at every quiescent boundary the full
// namespace and all file contents are diffed against it — tolerating only
// the writes the durability contract says a memory-losing crash may lose.
// Any failure is reported with the one-line (seed, config) tuple that
// reproduces it.
package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config shapes one chaos run. The zero value is not runnable; use
// DefaultConfig or fill in at least the deployment shape.
type Config struct {
	// Seed drives every random choice: the op trace, the event schedule,
	// and the message fault plan.
	Seed uint64

	// Deployment shape (always timeshare, durability always enabled: the
	// event schedule needs Crash/Recover and Checkpoint).
	Cores      int
	Servers    int
	MaxServers int // > Servers gives AddServer headroom

	Techniques core.Techniques
	Policy     place.Policy

	// Trace shape.
	Procs       int // concurrent client processes per round
	Rounds      int // rounds of traffic, with a quiescent boundary after each
	OpsPerRound int // POSIX ops per process per round

	// Message fault plan (see msg.FaultPlan). MaxDelay is the jitter bound
	// in cycles; DelayPercent and DupPercent are 0-100.
	MaxDelay     sim.Cycles
	DelayPercent int
	DupPercent   int

	// Replication, when not Off, runs the deployment with WAL-shipped
	// followers (DESIGN.md §12) and adds failover events to the schedule:
	// crash + promote-the-replica, with double-failure and
	// crash-during-promotion variants. The tuple grows a fourth token
	// ("sync"/"async") so repro lines stay one-liners; three-token tuples
	// parse as replication off.
	Replication repl.Mode

	// Trace, when enabled, records every sampled request's span tree
	// (DESIGN.md §11); the run's Report then carries the ring so the
	// matrix runner can dump it next to the repro tuple. The tuple does
	// not encode it — rerun a tuple with the same Trace setting to get
	// the identical canonical span tree.
	Trace trace.Config

	// Parallel runs the deployment under the parallel virtual-time engine
	// (SetParallel(true), DESIGN.md §13). Like Trace it is not part of the
	// tuple: rerun the same tuple with Parallel on and off to compare
	// engines — passing runs must produce byte-identical namespaces.
	Parallel bool

	// Snapshot, when set, records the final namespace (path -> entry
	// fingerprint) in the Report after the last round, for cross-engine
	// equivalence checks.
	Snapshot bool
}

// DefaultConfig returns the smoke-test-sized configuration used by CI: a
// small machine, a few processes, every technique enabled, modulo placement.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:         seed,
		Cores:        4,
		Servers:      2,
		MaxServers:   4,
		Techniques:   core.AllTechniques(),
		Policy:       place.PolicyModulo,
		Procs:        2,
		Rounds:       3,
		OpsPerRound:  12,
		MaxDelay:     20000,
		DelayPercent: 25,
		DupPercent:   20,
	}
}

// normalized fills defaults for unset fields.
func (c Config) normalized() Config {
	d := DefaultConfig(c.Seed)
	if c.Cores <= 0 {
		c.Cores = d.Cores
	}
	if c.Servers <= 0 {
		c.Servers = d.Servers
	}
	if c.MaxServers <= 0 {
		c.MaxServers = c.Servers
		if c.MaxServers < c.Cores {
			c.MaxServers = c.Cores
		}
	}
	if c.MaxServers > c.Cores {
		c.MaxServers = c.Cores
	}
	if c.Procs <= 0 {
		c.Procs = d.Procs
	}
	if c.Rounds <= 0 {
		c.Rounds = d.Rounds
	}
	if c.OpsPerRound <= 0 {
		c.OpsPerRound = d.OpsPerRound
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	return c
}

// techOrder is the bit order of the technique string: one letter per field
// of core.Techniques, '1' = enabled.
var techOrder = []struct {
	name string
	get  func(*core.Techniques) *bool
}{
	{"DirectoryDistribution", func(t *core.Techniques) *bool { return &t.DirectoryDistribution }},
	{"DirectoryBroadcast", func(t *core.Techniques) *bool { return &t.DirectoryBroadcast }},
	{"DirectAccess", func(t *core.Techniques) *bool { return &t.DirectAccess }},
	{"DirectoryCache", func(t *core.Techniques) *bool { return &t.DirectoryCache }},
	{"CreationAffinity", func(t *core.Techniques) *bool { return &t.CreationAffinity }},
	{"RPCPipelining", func(t *core.Techniques) *bool { return &t.RPCPipelining }},
	{"DataPath", func(t *core.Techniques) *bool { return &t.DataPath }},
}

// TechBits encodes a technique set as a 7-character bit string (the order is
// the field order of core.Techniques).
func TechBits(t core.Techniques) string {
	var sb strings.Builder
	for _, f := range techOrder {
		if *f.get(&t) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParseTechBits decodes a TechBits string.
func ParseTechBits(s string) (core.Techniques, error) {
	var t core.Techniques
	if len(s) != len(techOrder) {
		return t, fmt.Errorf("chaos: technique bits %q must be %d characters", s, len(techOrder))
	}
	for i, f := range techOrder {
		switch s[i] {
		case '1':
			*f.get(&t) = true
		case '0':
		default:
			return t, fmt.Errorf("chaos: technique bits %q: bad character %q", s, s[i])
		}
	}
	return t, nil
}

// policyName maps a placement policy to its tuple token.
func policyName(p place.Policy) string {
	if p == place.PolicyRing {
		return "ring"
	}
	return "mod"
}

// Tuple renders the run's one-line repro tuple: "seed,techbits,policy" with
// a fourth "sync"/"async" token when replication is on. A failing matrix run
// prints it, and ParseTuple (or `hare-chaos -repro`) turns it back into the
// identical run.
func (c Config) Tuple() string {
	t := fmt.Sprintf("%d,%s,%s", c.Seed, TechBits(c.Techniques), policyName(c.Policy))
	if c.Replication != repl.Off {
		t += "," + c.Replication.String()
	}
	return t
}

// ParseTuple decodes a Tuple back into the seed, technique set, policy and
// replication mode it names. A three-token tuple (every tuple printed before
// replication existed) parses as replication off. The remaining Config
// fields come from the caller (the matrix runner and the repro flag both
// apply them to the same base config).
func ParseTuple(s string) (seed uint64, tech core.Techniques, pol place.Policy, rmode repl.Mode, err error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 3 && len(parts) != 4 {
		return 0, tech, pol, rmode, fmt.Errorf("chaos: tuple %q must be seed,techbits,policy[,replmode]", s)
	}
	seed, err = strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return 0, tech, pol, rmode, fmt.Errorf("chaos: tuple seed %q: %w", parts[0], err)
	}
	tech, err = ParseTechBits(parts[1])
	if err != nil {
		return 0, tech, pol, rmode, err
	}
	switch parts[2] {
	case "mod":
		pol = place.PolicyModulo
	case "ring":
		pol = place.PolicyRing
	default:
		return 0, tech, pol, rmode, fmt.Errorf("chaos: tuple policy %q must be mod or ring", parts[2])
	}
	if len(parts) == 4 {
		m, ok := repl.ParseMode(parts[3])
		if !ok || m == repl.Off {
			return 0, tech, pol, rmode, fmt.Errorf("chaos: tuple replication %q must be sync or async", parts[3])
		}
		rmode = m
	}
	return seed, tech, pol, rmode, nil
}

// WithTuple returns a copy of base with the tuple's seed, techniques, policy
// and replication mode applied.
func WithTuple(base Config, seed uint64, tech core.Techniques, pol place.Policy, rmode repl.Mode) Config {
	base.Seed = seed
	base.Techniques = tech
	base.Policy = pol
	base.Replication = rmode
	return base
}
