package sim

import "fmt"

// GateAudit is the frontier discipline's test-only auditor (Gate.audit): it
// follows, per lane, whether the lane has said it blocks for a reply and the
// bound it published for it, and records a violation when
//
//   - a lane sends a message stamped below the frontier it has published,
//   - a replier raises a lane that is not blocked on a reply, or
//   - a reply reaches a lane before the bound the lane published for it
//     (the replier's turnaround, DESIGN.md §13 "Lookahead", was a lie).
type GateAudit struct {
	g          *Gate
	lanes      map[int]*auditedLane
	violations []string
	// The events seen, so that a test can tell a clean run from one that
	// exercised nothing.
	sent, awaits, replied int
}

type auditedLane struct {
	blocked bool
	bound   Cycles
}

// Audit installs an auditor on g. Call it while the system is quiescent.
func (g *Gate) Audit() *GateAudit {
	a := &GateAudit{g: g, lanes: make(map[int]*auditedLane)}
	g.mu.Lock()
	g.audit = a.event
	g.mu.Unlock()
	return a
}

// event runs with the gate's mutex held.
func (a *GateAudit) event(ev auditEvent, id int, at, t Cycles) {
	l := a.lanes[id]
	if l == nil {
		l = &auditedLane{}
		a.lanes[id] = l
	}
	switch ev {
	case auditSent:
		a.sent++
		if p := a.g.state(id); p > 0 && at < a.g.lanes.ents[p-1].t {
			a.fail("lane %d sends at %d, below its published frontier %d", id, at, a.g.lanes.ents[p-1].t)
		}
		if l.blocked, l.bound = t > at, t; l.blocked {
			a.awaits++
		}
	case auditAwait:
		a.awaits++
		l.blocked, l.bound = true, t
	case auditReplied:
		a.replied++
		switch {
		case !l.blocked:
			a.fail("lane %d raised to %d by a replier while not blocked on a reply", id, t)
		case t < l.bound:
			a.fail("a reply reaches lane %d at %d, before the bound %d the lane published", id, t, l.bound)
		}
		l.blocked = false
	}
}

func (a *GateAudit) fail(format string, args ...any) {
	if len(a.violations) < 16 {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns what the auditor has recorded so far (at most 16).
func (a *GateAudit) Violations() []string {
	a.g.mu.Lock()
	defer a.g.mu.Unlock()
	return append([]string(nil), a.violations...)
}

// Counts returns the events seen so far.
func (a *GateAudit) Counts() (sent, awaits, replied int) {
	a.g.mu.Lock()
	defer a.g.mu.Unlock()
	return a.sent, a.awaits, a.replied
}
