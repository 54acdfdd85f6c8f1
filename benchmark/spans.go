package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// numKinds is the number of span kinds the system's tracer records.
const numKinds = int(trace.KindFailover) + 1

// selfTimes returns, per span kind, the summed self time of the spans — a
// span's duration minus the part of that interval its child spans cover —
// and the number of root spans (sampled ops) among them.
func selfTimes(spans []trace.Span) (self [numKinds]sim.Cycles, roots int) {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Parent != y.Parent {
			return x.Parent < y.Parent
		}
		return x.Start < y.Start
	})
	covered := make([]sim.Cycles, len(spans))
	for lo := 0; lo < len(order); {
		parent := spans[order[lo]].Parent
		hi := lo
		for hi < len(order) && spans[order[hi]].Parent == parent {
			hi++
		}
		if pi, ok := byID[parent]; ok && parent != 0 {
			p := spans[pi]
			// Union of the children's intervals, clipped to the parent's:
			// parallel broadcasts overlap and must not be counted twice.
			end := p.Start
			for _, ci := range order[lo:hi] {
				c := spans[ci]
				from, to := max(c.Start, end), min(c.End, p.End)
				if to > from {
					covered[pi] += to - from
					end = to
				}
			}
		}
		lo = hi
	}
	for i, s := range spans {
		if int(s.Kind) >= numKinds || s.End < s.Start {
			continue
		}
		self[s.Kind] += s.End - s.Start - covered[i]
		if s.Kind == trace.KindRoot {
			roots++
		}
	}
	return self, roots
}

// probeSpan is the benchmark's span around one probe call.
type probeSpan struct {
	name       string
	start, end time.Duration // since the probes began
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeWallTrack writes the benchmark's own spans of the traced pass as
// Chrome trace JSON on the wall clock: one row per worker (a region span and
// its call spans, which carry their virtual start and end as arguments) and
// one row for the probes.
func writeWallTrack(path string, rep *repetition, probes []probeSpan) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var events []chromeEvent
	for idx, spans := range rep.callSpans {
		region := fmt.Sprintf("worker-%d", idx)
		events = append(events, chromeEvent{Name: region, Cat: "region", Ph: "X", Ts: 0, Dur: us(rep.regionWall), Pid: 1, Tid: idx + 1,
			Args: map[string]any{"trace": idx, "calls_kept": len(spans)}})
		for _, s := range spans {
			events = append(events, chromeEvent{Name: opNames[s.kind], Cat: "call", Ph: "X", Ts: us(s.wallStart), Dur: us(s.wallEnd - s.wallStart), Pid: 1, Tid: idx + 1,
				Args: map[string]any{"trace": idx, "parent": region, "virt_start": uint64(s.virtStart), "virt_end": uint64(s.virtEnd)}})
		}
	}
	// The probes run after the timed region; their row starts where it ends.
	for _, p := range probes {
		events = append(events, chromeEvent{Name: p.name, Cat: "probe", Ph: "X", Ts: us(rep.regionWall + p.start), Dur: us(p.end - p.start), Pid: 2, Tid: 1})
	}
	doc := map[string]any{
		"displayTimeUnit": "ns",
		"traceEvents":     events,
		"otherData":       map[string]any{"clock": "wall", "calls_kept_per_worker": spansPerWorker, "calls": rep.Calls},
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// writeVirtualSpans writes the system tracer's spans of the traced pass as
// Chrome trace JSON on the virtual clock.
func writeVirtualSpans(path string, spans []trace.Span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return trace.WriteChrome(f, spans)
}
