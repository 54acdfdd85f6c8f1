package repl

import (
	"sort"

	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Monitor is the control plane's failure detector: it pings each server's
// replication endpoint on a virtual-time cadence and suspects a server dead
// after a silence threshold. Pings are one-way sends with a shared reply
// queue — the monitor never blocks on a dead server — and pongs carry the
// responder's replication horizons, so the same beat that proves liveness
// also reports follower lag.
//
// The false-positive bound is structural: a live server answers a ping
// within one round trip, so as long as SuspectAfter exceeds the ping
// interval plus the worst fault-plan round trip (2 × MaxDelay jitter on
// top of propagation and service), a slow server is never suspected — only
// a dead one, whose pongs stop entirely. The monitor test pins this bound.
//
// Monitor methods are not goroutine-safe; the deployment drives them from
// its control plane only.
type Monitor struct {
	network  *msg.Network
	ep       *msg.Endpoint
	interval sim.Cycles
	timeout  sim.Cycles
	replies  *msg.Queue
	peers    map[int]*peer
	byEP     map[msg.EndpointID]int
}

type peer struct {
	ep        msg.EndpointID
	tracked   sim.Cycles // when tracking started (grace period base)
	lastPing  sim.Cycles
	lastHeard sim.Cycles
	pinged    bool
	heard     bool
}

// NewMonitor builds a failure detector that pings from the given endpoint.
func NewMonitor(network *msg.Network, ep *msg.Endpoint, cfg Config) *Monitor {
	cfg = cfg.Normalized()
	// Pings go to ungated replication inboxes and pongs are drained without
	// blocking: the detector's lane holds no ordering obligation.
	ep.Transient = true
	return &Monitor{
		network:  network,
		ep:       ep,
		interval: cfg.HeartbeatEvery,
		timeout:  cfg.SuspectAfter,
		replies:  msg.NewQueue(),
		peers:    make(map[int]*peer),
		byEP:     make(map[msg.EndpointID]int),
	}
}

// Track adds a server's replication endpoint to the beat set.
func (m *Monitor) Track(server int, ep msg.EndpointID, now sim.Cycles) {
	m.peers[server] = &peer{ep: ep, tracked: now}
	m.byEP[ep] = server
}

// Tick advances the detector to virtual time now: due pings go out and
// arrived pongs are drained. It returns the number of pings sent.
func (m *Monitor) Tick(now sim.Cycles) int {
	sent := 0
	for _, p := range m.peers {
		if p.pinged && now-p.lastPing < m.interval {
			continue
		}
		payload := (&proto.Request{Op: proto.OpPing}).Marshal()
		if _, err := m.network.Send(m.ep, p.ep, proto.KindRequest, payload, now, m.replies); err == nil {
			p.lastPing = now
			p.pinged = true
			sent++
		}
	}
	m.drain()
	return sent
}

// drain consumes arrived pongs without blocking.
func (m *Monitor) drain() {
	for {
		env, ok := m.replies.TryPop()
		if !ok {
			return
		}
		id, ok := m.byEP[env.Src]
		if !ok {
			continue
		}
		p := m.peers[id]
		if env.ArriveAt > p.lastHeard {
			p.lastHeard = env.ArriveAt
		}
		p.heard = true
	}
}

// Suspected returns the servers (sorted) whose silence exceeds the
// threshold at virtual time now. A server is silent from its last pong —
// or, if it never answered, from when tracking started — and is only
// suspected once it has actually been pinged.
func (m *Monitor) Suspected(now sim.Cycles) []int {
	m.drain()
	var out []int
	for id, p := range m.peers {
		if !p.pinged {
			continue
		}
		base := p.tracked
		if p.heard {
			base = p.lastHeard
		}
		if now > base && now-base > m.timeout {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// LastHeard returns the virtual time of the last pong from server, and
// whether one was ever heard.
func (m *Monitor) LastHeard(server int) (sim.Cycles, bool) {
	m.drain()
	p, ok := m.peers[server]
	if !ok || !p.heard {
		return 0, false
	}
	return p.lastHeard, true
}
