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
//     A batch from beyond that horizon applies nothing and is answered
//     with a request for a rebase snapshot.
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
// follower ring. That plane answers two kinds of message, a ship and a failover's
// seal (proto.KindReplShip, proto.KindReplSeal), each carrying a Msg as its
// whole payload, and answers anything else empty.
package repl

import "fmt"

// Mode selects the replication discipline.
type Mode uint8

// Replication modes.
const (
	// Off disables replication entirely: no follower endpoints, zero
	// extra messages.
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

// Config is the deployment-level replication knob (core.Config.Replication).
type Config struct {
	// Mode selects off / sync shipping.
	Mode Mode
}

// Enabled reports whether replication is on.
func (c Config) Enabled() bool { return c.Mode != Off }
