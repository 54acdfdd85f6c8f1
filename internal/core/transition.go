package core

import (
	"fmt"

	"repro/internal/place"
	"repro/internal/proto"
)

// Epoch transitions (DESIGN.md §9, "Epoch transitions"). Every change of
// whom the clients' hash routes to — a server added or drained, a crashed
// server's replica promoted — is one transition, run by one driver. The
// control plane speaks to each server individually over the normal request
// path, and servers never talk to each other:
//
//	FREEZE  every involved server     (entry mutations park)
//	PULL    from every donor          (copy out the entries that move)
//	publish the new routing           (clients adopt the next epoch)
//	install the promoted server       (failover only: boot the replica)
//	COMMIT  every involved server     (install/drop entries, adopt the epoch)
//
// A crash of a server mid-transition leaves the transition pending: the failed
// step returns an error, and after the server recovers, ResumeMigration
// re-drives it. Every step is idempotent — re-freezing is a no-op, re-pulling
// is a read, the install and the pull run once, re-committing re-installs the
// same entries — so the resumed run converges, and each server's write-ahead
// log puts it on exactly one side of the epoch boundary.

// transition is one epoch change in flight.
type transition struct {
	newMap *place.Map
	// servers are frozen before and committed after the new map is
	// published; captured up front, so a resumed run still knows them.
	servers []int
	// donors are pulled from; nil for a transition that moves no entries,
	// and once the pull has completed.
	donors []int
	// incoming holds the pulled entries grouped by destination. A resumed run
	// reuses the saved transfers because a donor that already committed no
	// longer holds its outgoing entries.
	incoming map[int][]proto.MigEntry
	// marked and deadDirs are the union of the donors' in-flight rmdir marks
	// and tombstones, replicated to every involved server at commit so rmdir
	// semantics survive the ownership change.
	marked   []proto.InodeID
	deadDirs []proto.InodeID
	// install, when set, runs against server installOn between publish and
	// commit, with the map being published. Once installOn is running again
	// — installed, or restarted by another path first — it is dropped, and
	// installOn becomes one of servers (see restarted).
	install   func(*place.Map) error
	installOn int
}

// restarted notes that server id is running again. A pending install on it
// is dropped: its snapshot is now older than what the server holds, so
// booting it would lose writes acknowledged since the restart. The server is
// frozen and committed like any other member instead, so it follows every
// epoch the transition is re-stamped to. Caller holds elMu.
func (s *System) restarted(id int) {
	for _, t := range s.pending {
		if t.install != nil && t.installOn == id {
			t.install = nil
			t.servers = append(t.servers, id)
		}
	}
}

// MigrationPending reports whether an interrupted transition — a migration
// or a failover's — awaits ResumeMigration.
func (s *System) MigrationPending() bool {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	return len(s.pending) > 0
}

// SetMigrationObserver installs a hook called before each transition step
// ("freeze", "pull", "publish", "install", "commit", and a failover's "seal")
// with the target server id (-1 for publish). Used by fault-injection tests
// and operational tracing.
func (s *System) SetMigrationObserver(fn func(stage string, srv int)) {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	s.observer = fn
}

func (s *System) observe(stage string, srv int) {
	if s.observer != nil {
		s.observer(stage, srv)
	}
}

// ResumeMigration re-drives the interrupted transitions (after recovering the
// crashed server). It is a no-op when nothing is pending.
func (s *System) ResumeMigration() error {
	s.elMu.Lock()
	defer s.elMu.Unlock()
	return s.resume()
}

// resume drives the pending transitions in order; each leaves the queue once
// it has committed. Caller holds elMu.
func (s *System) resume() error {
	for len(s.pending) > 0 {
		if err := s.drive(s.pending[0]); err != nil {
			return err
		}
		s.pending = s.pending[1:]
	}
	return nil
}

// drive runs (or resumes) t's freeze → pull → publish → install → commit.
// Caller holds elMu.
func (s *System) drive(t *transition) error {
	epoch := t.newMap.Epoch()
	blob := t.newMap.Encode()

	for _, id := range t.servers {
		s.observe("freeze", id)
		if _, err := s.shardRPC(id, &proto.Request{Op: proto.OpShardFreeze, Epoch: epoch}); err != nil {
			return fmt.Errorf("core: freeze server %d for epoch %d: %w", id, epoch, err)
		}
	}

	if len(t.donors) > 0 {
		if err := s.pull(t, epoch, blob); err != nil {
			return err
		}
	}

	// Publish before committing: clients that refresh now route at the new
	// epoch and park at the still-frozen new owners, so no window exists in
	// which an entry is served by nobody — and a promoted server, which
	// boots at the new epoch, never EEPOCHs them into a livelock.
	s.observe("publish", -1)
	s.publishRouting(t.newMap)

	// The installed server boots at the new epoch, so this pass commits only
	// the servers it froze; a resumed pass freezes and commits it too.
	servers := t.servers
	if t.install != nil {
		s.observe("install", t.installOn)
		if err := t.install(t.newMap); err != nil {
			return fmt.Errorf("core: install server %d at epoch %d: %w", t.installOn, epoch, err)
		}
		s.restarted(t.installOn)
	}

	for _, id := range servers {
		s.observe("commit", id)
		sm := &proto.ShardMsg{
			MapBlob:  blob,
			Entries:  t.incoming[id],
			Marked:   t.marked,
			DeadDirs: t.deadDirs,
		}
		if _, err := s.shardRPC(id, &proto.Request{Op: proto.OpShardCommit, Epoch: epoch, Data: sm.Marshal()}); err != nil {
			return fmt.Errorf("core: commit epoch %d on server %d: %w", epoch, id, err)
		}
	}
	return nil
}

// pull copies out of every donor the entries the new map routes elsewhere,
// with the donors' rmdir state, and saves them in t once every donor has
// answered.
func (s *System) pull(t *transition, epoch uint64, blob []byte) error {
	incoming := make(map[int][]proto.MigEntry)
	var marked, deadDirs []proto.InodeID
	seenMarked := make(map[proto.InodeID]bool)
	seenDead := make(map[proto.InodeID]bool)
	req := (&proto.ShardMsg{MapBlob: blob}).Marshal()
	for _, id := range t.donors {
		s.observe("pull", id)
		resp, err := s.shardRPC(id, &proto.Request{Op: proto.OpShardPull, Epoch: epoch, Data: req})
		if err != nil {
			return fmt.Errorf("core: pull shards from server %d: %w", id, err)
		}
		m, err := proto.UnmarshalShardMsg(resp.Data)
		if err != nil {
			return fmt.Errorf("core: pull reply from server %d: %w", id, err)
		}
		for _, ent := range m.Entries {
			dst := int(t.newMap.Route(proto.Hash(ent.Dir, ent.Name)))
			incoming[dst] = append(incoming[dst], ent)
		}
		marked = appendNew(marked, seenMarked, m.Marked)
		deadDirs = appendNew(deadDirs, seenDead, m.DeadDirs)
	}
	t.incoming, t.marked, t.deadDirs, t.donors = incoming, marked, deadDirs, nil
	return nil
}

// appendNew appends the ids not yet in seen, in order, and records them.
func appendNew(dst []proto.InodeID, seen map[proto.InodeID]bool, ids []proto.InodeID) []proto.InodeID {
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			dst = append(dst, id)
		}
	}
	return dst
}

// shardRPC sends one control-plane request to a server over the normal
// request path (it serializes with in-flight client operations). A crashed
// target is reported as an error instead of blocking forever on a closed
// request loop.
func (s *System) shardRPC(id int, req *proto.Request) (*proto.Response, error) {
	if id < 0 || id >= len(s.servers) {
		return nil, fmt.Errorf("no server %d (have %d)", id, len(s.servers))
	}
	resp := new(proto.Response)
	return resp, s.ctlRPC(id, s.serverEPs[id], req, resp)
}
