// Package repl is Hare's shard-replication layer: primary → follower
// shipping of write-ahead-log records so a crashed server can be failed
// over by promoting a warm standby instead of replaying its log.
//
// The paper scopes availability out entirely; PR 1's WAL closed the
// durability gap but recovery still stalls every client routed to the
// crashed server for the full log replay. This package closes the
// availability gap with the smallest mechanism that composes with what
// already exists:
//
//   - The primary ships the exact CRC-framed frames each append wrote to
//     its log (wal.Log.LastFrames) to one follower, while the append's
//     flush is under way. Records are state assignments, so the follower's
//     ingest is idempotent and a re-shipped batch is harmless.
//   - The Follower is the server's replay, run ahead of time: it applies
//     each batch to a wal.Image — the same type, and the same Apply, a
//     recovering server replays its log into — holding the primary's
//     inodes, directory shards, dead-directory tombstones, and per-block
//     file contents, and tracks the durable horizon it has applied, which
//     it acks back to the primary.
//   - Every ship waits for the follower's ack, and each client reply is
//     held until the follower acked the request's records, so promotion
//     never loses an acknowledged write (the primary-backup rule of chain
//     replication). The ship overlaps the local flush.
//   - Failover seals the follower, converts its image into a
//     wal.Checkpoint, and installs that snapshot into the crashed
//     primary's server object under a bumped placement epoch — clients
//     reroute with the same EEPOCH refresh they already use for shard
//     migration (DESIGN.md §12).
//
// Servers never talk to each other on their request planes: replication
// traffic travels on a dedicated per-server replication endpoint served by
// its own goroutine, so a follower can ack while its request loop is busy
// and a primary blocked on its ship can never deadlock against its
// follower ring.
package repl

import (
	"fmt"

	"repro/internal/sim"
)

// Mode selects the replication discipline.
type Mode uint8

// Replication modes.
const (
	// Off disables replication entirely: no follower endpoints, no
	// heartbeats, zero extra messages.
	Off Mode = iota
	// Sync holds every client reply until the follower has acked the
	// reply's log records. Promotion never loses an acknowledged write.
	Sync
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Sync:
		return "sync"
	default:
		return "mode(?)"
	}
}

// ParseMode is the inverse of String. "async" is refused by name: that
// discipline was removed, and every ship now waits for its follower's ack.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "sync":
		return Sync, nil
	case "async":
		return Off, fmt.Errorf("replication %q: async replication was removed (every ship waits for its follower's ack); use sync", s)
	default:
		return Off, fmt.Errorf("replication %q must be off or sync", s)
	}
}

// DefaultHeartbeatEvery is the virtual-time ping cadence of the failure
// detector (≈ 50µs at the simulator's cycle scale: frequent enough that a
// chaos round observes several beats, cheap enough to disappear in the
// message economy).
const DefaultHeartbeatEvery sim.Cycles = 120_000

// DefaultSuspectAfter is the silence threshold before a server is
// suspected dead. It must exceed one heartbeat interval plus the worst
// round trip a fault plan can inflict (2 × MaxDelay jitter + service);
// the monitor test pins that a merely-slow server under maximum jitter
// never crosses it.
const DefaultSuspectAfter sim.Cycles = 600_000

// Config is the deployment-level replication knob (core.Config.Replication).
type Config struct {
	// Mode selects off / sync shipping.
	Mode Mode
	// HeartbeatEvery is the failure detector's ping cadence
	// (0 = DefaultHeartbeatEvery).
	HeartbeatEvery sim.Cycles
	// SuspectAfter is the silence threshold for suspecting a server dead
	// (0 = DefaultSuspectAfter).
	SuspectAfter sim.Cycles
}

// Enabled reports whether replication is on.
func (c Config) Enabled() bool { return c.Mode != Off }

// Normalized fills zero fields with defaults.
func (c Config) Normalized() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	return c
}
