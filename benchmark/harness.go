package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
)

// opKind classifies one fsapi call for the per-call latency samples.
type opKind uint8

const (
	opOpen opKind = iota // open, with or without O_CREAT
	opClose
	opRead
	opWrite
	opFsync
	opUnlink
	opStat
	opRename
	opReaddir
	opMkdir
	numOpKinds
)

var opNames = [numOpKinds]string{"open", "close", "read", "write", "fsync", "unlink", "stat", "rename", "readdir", "mkdir"}

// A latency sample packs the call's virtual latency in cycles (clamped) into
// the top 28 bits and the op kind into the low 4, so one sort orders the
// samples by latency and every kind's samples among themselves.
const (
	kindBits = 4
	kindMask = 1<<kindBits - 1
	latMax   = 1<<(32-kindBits) - 1
)

// callSpan is one of the benchmark's own spans: one fsapi call of one
// worker, in both clocks. The worker's region span is its parent and the
// worker index its trace id (see writeSpans).
type callSpan struct {
	kind               opKind
	wallStart, wallEnd time.Duration // since the timed region began
	virtStart, virtEnd sim.Cycles
}

// spansPerWorker bounds how many call spans one worker keeps in the traced
// pass; the result records how many calls there were, so the kept share is
// known.
const spansPerWorker = 1024

// worker is one simulated process issuing the workload's calls. Every call
// goes through one of the methods below, which time it in virtual time,
// count it, and count its failure; a worker whose samples have no capacity
// (the set-up and check processes) only counts.
type worker struct {
	idx int
	p   *sched.Proc
	fs  fsapi.Client

	samples []uint32
	calls   int
	failed  int
	firstEr string
	// bytesRead and bytesWritten are the data the calls moved, for the
	// attribution of host time to the buffer-cache layer.
	bytesRead, bytesWritten uint64

	spans  []callSpan // nil except in the traced pass
	region time.Time  // wall start of the timed region (traced pass)
}

type callStart struct {
	virt sim.Cycles
	wall time.Duration
}

func (w *worker) begin() callStart {
	s := callStart{virt: w.p.Now()}
	if w.spans != nil {
		s.wall = time.Since(w.region)
	}
	return s
}

func (w *worker) end(k opKind, s callStart, err error) bool {
	now := w.p.Now()
	w.calls++
	if len(w.samples) < cap(w.samples) {
		d := min(uint64(now-s.virt), latMax)
		w.samples = append(w.samples, uint32(d)<<kindBits|uint32(k))
	}
	if w.spans != nil && len(w.spans) < cap(w.spans) {
		w.spans = append(w.spans, callSpan{k, s.wall, time.Since(w.region), s.virt, now})
	}
	if err != nil {
		w.fail("%s: %v", opNames[k], err)
		return false
	}
	return true
}

// fail counts one failed call or failed output check and keeps the first
// message for the report.
func (w *worker) fail(format string, args ...any) {
	w.failed++
	if w.firstEr == "" {
		w.firstEr = fmt.Sprintf(format, args...)
	}
}

func (w *worker) open(path string, flags int) (fsapi.FD, bool) {
	s := w.begin()
	fd, err := w.fs.Open(path, flags, fsapi.Mode644)
	return fd, w.end(opOpen, s, err)
}

// touch creates an empty file.
func (w *worker) touch(path string) {
	if fd, ok := w.open(path, fsapi.OCreate|fsapi.OWrOnly); ok {
		w.close(fd)
	}
}

func (w *worker) close(fd fsapi.FD) bool {
	s := w.begin()
	return w.end(opClose, s, w.fs.Close(fd))
}

// read reads len(buf) bytes at off and fails on a short read.
func (w *worker) read(fd fsapi.FD, buf []byte, off int64) bool {
	s := w.begin()
	n, err := w.fs.Pread(fd, buf, off)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("short read: %d of %d bytes at %d", n, len(buf), off)
	}
	w.bytesRead += uint64(n)
	return w.end(opRead, s, err)
}

func (w *worker) write(fd fsapi.FD, buf []byte, off int64) bool {
	s := w.begin()
	n, err := w.fs.Pwrite(fd, buf, off)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("short write: %d of %d bytes at %d", n, len(buf), off)
	}
	w.bytesWritten += uint64(n)
	return w.end(opWrite, s, err)
}

func (w *worker) fsync(fd fsapi.FD) bool {
	s := w.begin()
	return w.end(opFsync, s, w.fs.Fsync(fd))
}

func (w *worker) unlink(path string) bool {
	s := w.begin()
	return w.end(opUnlink, s, w.fs.Unlink(path))
}

func (w *worker) stat(path string) (fsapi.Stat, bool) {
	s := w.begin()
	st, err := w.fs.Stat(path)
	return st, w.end(opStat, s, err)
}

func (w *worker) rename(from, to string) bool {
	s := w.begin()
	return w.end(opRename, s, w.fs.Rename(from, to))
}

func (w *worker) readdir(path string) ([]fsapi.Dirent, bool) {
	s := w.begin()
	ents, err := w.fs.ReadDir(path)
	return ents, w.end(opReaddir, s, err)
}

func (w *worker) mkdir(path string, distributed bool) bool {
	s := w.begin()
	return w.end(opMkdir, s, w.fs.Mkdir(path, fsapi.MkdirOpt{Distributed: distributed}))
}

// workload is one of the benchmark's op streams. Its names and payloads are
// fixed by newWorkload from the seed, before anything is timed.
type workload interface {
	// deployment describes the machine the stream runs on.
	deployment() deployment
	// setup builds the skeleton of the resident namespace from one process;
	// populate then fills it, as one of workers8 processes (w.idx tells
	// which). One process alone ping-pongs with the servers and leaves the
	// host's other core idle, and set-up time measured that way followed the
	// host's wake-up latency: 0.51 s one hour and 0.80 s another on
	// meta_churn, while the timed regions moved by a tenth.
	setup(w *worker)
	populate(w *worker)
	// callsPerWorker is how many calls run makes, for sizing the samples.
	callsPerWorker() int
	// run is one worker's share of the timed region.
	run(w *worker)
	// check verifies the outputs of the timed region from one process.
	check(w *worker, rep *repetition)
	// exampleName is a path of the kind the stream's requests carry, for
	// the probes.
	exampleName() string
}

type deployment struct {
	cores    int  // cores = servers = workers, timesharing
	durable  bool // WAL on a MemStore with sync replication
	parallel bool // parallel virtual-time engine
}

// counters is every cumulative counter the system's public accessors offer;
// a repetition reports the difference across its timed region.
type counters struct {
	econ      stats.Economy
	callbacks uint64
	srv       []server.Stats
	wal       []wal.Stats
}

func readCounters(sys *core.System) counters {
	return counters{
		econ:      sys.MessageEconomy(),
		callbacks: sys.Network().CallbackCount(),
		srv:       sys.ServerStats(),
		wal:       sys.WalStats(),
	}
}

// repetition is what one fresh deployment → set-up → timed region → check
// measured.
type repetition struct {
	Calls  int `json:"calls"`
	Failed int `json:"failed"`
	// FirstError is the first failed call or check, for the report.
	FirstError string `json:"first_error,omitempty"`

	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	VirtS  float64 `json:"virt_s"`
	// Mallocs is the heap allocation count across the timed region.
	Mallocs uint64 `json:"mallocs"`
	// Virtual latency over every call: mean, mean of the slowest 5 %, and
	// the nearest-rank percentiles.
	MeanUs float64 `json:"virt_op_mean_us"`
	TailUs float64 `json:"virt_op_tail_us"`
	P50Us  float64 `json:"virt_op_p50_us"`
	P99Us  float64 `json:"virt_op_p99_us"`
	// OpP99Us is the p99 by op kind, for the kinds the stream issues.
	OpP99Us map[string]float64 `json:"op_p99_us"`

	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`

	// Counter differences across the timed region.
	Econ        stats.Economy `json:"economy"`
	Callbacks   uint64        `json:"callbacks"`
	ServerOps   uint64        `json:"server_ops"`
	Invals      uint64        `json:"invalidations"`
	Parked      uint64        `json:"parked"`
	Imbalance   float64       `json:"load_imbalance"`
	WalRecords  uint64        `json:"wal_records"`
	WalBytes    uint64        `json:"wal_bytes"`
	WalFlushes  uint64        `json:"wal_flushes"`
	ReplMaxLag  uint64        `json:"repl_max_lag"`
	VirtCycles  uint64        `json:"virt_cycles"`
	GCCPUShare  float64       `json:"gc_cpu_share"`
	GCPauseMs   float64       `json:"gc_pause_ms"`
	HeapInuseMB float64       `json:"heap_inuse_mb"`

	// opMix, entries and the spans feed the probes and the traced pass;
	// they are not part of the result file.
	traced     bool
	opMix      map[proto.Op]uint64
	entries    int64
	spans      []trace.Span
	dropped    uint64
	callSpans  [][]callSpan
	regionWall time.Duration
}

// counterMetrics are the per-layer metrics that are one counter's difference
// across the timed region ÷ calls.
var counterMetrics = []struct {
	name    string
	counter func(r *repetition) uint64
}{
	{"msg.msgs_per_op", func(r *repetition) uint64 { return r.Econ.Msgs }},
	{"msg.bytes_per_op", func(r *repetition) uint64 { return r.Econ.Bytes }},
	{"msg.callbacks_per_op", func(r *repetition) uint64 { return r.Callbacks }},
	{"client.rpcs_per_op", func(r *repetition) uint64 { return r.Econ.ClientRPCs }},
	{"client.batched_subops_per_op", func(r *repetition) uint64 { return r.Econ.BatchedOps }},
	{"ncc.wb_lines_per_op", func(r *repetition) uint64 { return r.Econ.WbLines }},
	{"ncc.inv_lines_per_op", func(r *repetition) uint64 { return r.Econ.InvLines }},
	{"ncc.skip_lines_per_op", func(r *repetition) uint64 { return r.Econ.SkipLines }},
	{"wal.records_per_op", func(r *repetition) uint64 { return r.WalRecords }},
	{"wal.bytes_per_op", func(r *repetition) uint64 { return r.WalBytes }},
	{"repl.msgs_per_op", func(r *repetition) uint64 { return r.Econ.ReplMsgs }},
	{"repl.bytes_per_op", func(r *repetition) uint64 { return r.Econ.ReplBytes }},
	{"server.queue_cycles_per_op", func(r *repetition) uint64 { return r.Econ.QueueCycles }},
	{"server.invalidations_per_op", func(r *repetition) uint64 { return r.Invals }},
}

// exactCounters lists the counters that must repeat exactly for one seed:
// the calls, and the counters behind the per-layer metrics marked exact.
func (r *repetition) exactCounters() []uint64 {
	out := []uint64{uint64(r.Calls)}
	for _, c := range counterMetrics {
		if exactMetric[c.name] {
			out = append(out, c.counter(r))
		}
	}
	return out
}

// runRepetition builds a fresh deployment, sets it up, runs the timed
// region with one worker per core, and checks the outputs. tr enables the
// system's tracer and the benchmark's own call spans.
func runRepetition(wl workload, tr trace.Config) (*repetition, error) {
	dep := wl.deployment()
	cfg := core.Config{
		Cores:      dep.cores,
		Servers:    dep.cores,
		Timeshare:  true,
		Techniques: core.AllTechniques(),
		Placement:  sched.PolicyRoundRobin,
		Trace:      tr,
	}
	if dep.durable {
		// A 10 µs group-commit window (at 2.4 GHz), so that flushes batch.
		cfg.Durability = core.Durability{Enabled: true, GroupCommitInterval: 24_000}
		cfg.Replication = repl.Config{Mode: repl.Sync}
	}

	rep := &repetition{traced: tr.Enabled()}
	// Collect the previous repetition's deployment now, not at some point
	// of this one's set-up.
	runtime.GC()
	setupStart := time.Now()
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	sys.Start()
	defer sys.Stop()
	root := &worker{}
	builders := make([]*worker, workers8)
	for i := range builders {
		builders[i] = &worker{idx: i}
	}
	runRoot(sys, root, func(w *worker) {
		wl.setup(w)
		if fanOut(w.p, builders, wl.populate) != 0 {
			w.fail("a set-up process did not start")
		}
	})
	for _, b := range builders {
		root.failed += b.failed
		if root.firstEr == "" {
			root.firstEr = b.firstEr
		}
	}
	// The parallel engine is switched on between set-up and timed region: it
	// can be while no process is live, and the set-up is then the one the
	// serialized twin gets.
	if dep.parallel {
		if err := sys.SetParallel(true); err != nil {
			return nil, err
		}
	}
	rep.SetupS = time.Since(setupStart).Seconds()

	workers := make([]*worker, dep.cores)
	for i := range workers {
		workers[i] = &worker{idx: i, samples: make([]uint32, 0, wl.callsPerWorker())}
		if tr.Enabled() {
			workers[i].spans = make([]callSpan, 0, spansPerWorker)
		}
	}
	sys.Tracer().Reset()
	virtStart := sys.Procs().MaxEndTime()
	base := readCounters(sys)
	runtime.GC()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	wallStart := time.Now()
	for _, w := range workers {
		w.region = wallStart
	}

	status := runRoot(sys, &worker{}, func(rw *worker) {
		if fanOut(rw.p, workers, wl.run) != 0 {
			rw.fail("a worker process did not start")
		}
	})

	rep.regionWall = time.Since(wallStart)
	runtime.ReadMemStats(&memAfter)
	rep.WallS = rep.regionWall.Seconds()
	virt := sys.Procs().MaxEndTime() - virtStart
	rep.VirtCycles = uint64(virt)
	rep.VirtS = sys.Seconds(virt)
	rep.Mallocs = memAfter.Mallocs - memBefore.Mallocs
	rep.GCCPUShare = memAfter.GCCPUFraction
	rep.GCPauseMs = float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs) / 1e6
	rep.HeapInuseMB = float64(memAfter.HeapInuse) / (1 << 20)
	rep.countersSince(base, readCounters(sys), virt)
	rep.spans, rep.dropped = sys.Tracer().Spans(), sys.Tracer().Dropped()

	rep.Failed = status.failed
	rep.FirstError = status.firstEr
	var all []uint32
	for _, w := range workers {
		rep.Calls += w.calls
		rep.Failed += w.failed
		rep.BytesRead += w.bytesRead
		rep.BytesWritten += w.bytesWritten
		if rep.FirstError == "" {
			rep.FirstError = w.firstEr
		}
		all = append(all, w.samples...)
		if w.spans != nil {
			rep.callSpans = append(rep.callSpans, w.spans)
		}
	}
	rep.latencies(all, sys)

	runRoot(sys, root, func(w *worker) { wl.check(w, rep) })
	rep.Failed += root.failed
	if rep.FirstError == "" {
		rep.FirstError = root.firstEr
	}
	return rep, nil
}

// countersSince fills the repetition's counter differences.
func (r *repetition) countersSince(base, now counters, virt sim.Cycles) {
	r.Econ = now.econ.Sub(base.econ)
	r.Callbacks = now.callbacks - base.callbacks
	r.opMix = make(map[proto.Op]uint64)
	loads := make([]uint64, len(now.srv))
	var lag uint64
	for i, s := range now.srv {
		b := base.srv[i]
		for op, n := range s.Ops {
			if d := n - b.Ops[op]; d > 0 {
				r.opMix[op] += d
				loads[i] += d
			}
		}
		r.ServerOps += loads[i]
		r.Invals += s.Invalidations - b.Invalidations
		r.Parked += s.Parked - b.Parked
		r.entries += s.Entries
		if l := s.ReplLastLSN - s.ReplDurable; s.ReplLastLSN > s.ReplDurable && l > lag {
			lag = l
		}
		r.WalRecords += now.wal[i].Records - base.wal[i].Records
		r.WalBytes += now.wal[i].Bytes - base.wal[i].Bytes
		r.WalFlushes += now.wal[i].Flushes - base.wal[i].Flushes
	}
	r.ReplMaxLag = lag
	r.Imbalance = stats.Imbalance(loads)
}

// latencies turns the packed samples into the latency figures, in
// microseconds.
func (r *repetition) latencies(all []uint32, sys *core.System) {
	if len(all) == 0 {
		return
	}
	us := func(cycles uint64) float64 { return sys.Seconds(sim.Cycles(cycles)) * 1e6 }
	mean := func(xs []uint32) float64 {
		var sum uint64
		for _, x := range xs {
			sum += uint64(x >> kindBits)
		}
		return us(sum) / float64(len(xs))
	}
	slices.Sort(all)
	r.P50Us = us(uint64(all[nearestRank(len(all), 50)] >> kindBits))
	r.P99Us = us(uint64(all[nearestRank(len(all), 99)] >> kindBits))
	r.MeanUs = mean(all)
	r.TailUs = mean(all[len(all)-(len(all)+19)/20:])

	// A kind's p99 is the sample at the nearest rank among that kind's own.
	var count, seen [numOpKinds]int
	for _, x := range all {
		count[x&kindMask]++
	}
	r.OpP99Us = make(map[string]float64)
	for _, x := range all {
		k := x & kindMask
		if seen[k] == nearestRank(count[k], 99) {
			r.OpP99Us[opNames[k]] = us(uint64(x >> kindBits))
		}
		seen[k]++
	}
}

// nearestRank is the index of the p-th percentile in a sorted slice of n > 0
// values.
func nearestRank(n, p int) int {
	return max(1, (n*p+99)/100) - 1
}

// runRoot runs fn in a fresh process on the first core and waits for it.
func runRoot(sys *core.System, w *worker, fn func(w *worker)) *worker {
	h := sys.Procs().StartRoot(sys.AppCores()[0], []string{"benchmark"}, func(p *sched.Proc) int {
		w.p, w.fs = p, p.FS
		fn(w)
		return 0
	})
	h.Wait()
	return w
}

// fanOut spawns one process per worker, placed round-robin over the cores by
// the exec protocol, waits for all of them, and reports a non-zero status if
// one could not start. It parks the waiting parent's lane under the parallel
// engine, as every process waiting on children must (DESIGN.md §13).
func fanOut(p *sched.Proc, workers []*worker, run func(w *worker)) int {
	handles := make([]*sched.Handle, 0, len(workers))
	for _, w := range workers {
		h, err := p.Spawn([]string{fmt.Sprintf("worker-%d", w.idx)}, func(wp *sched.Proc) int {
			w.p, w.fs = wp, wp.FS
			run(w)
			return 0
		}, true)
		if err != nil {
			return 1
		}
		handles = append(handles, h)
	}
	gp, _ := p.FS.(sched.GateParker)
	parked := gp != nil && gp.GateActive()
	if parked {
		gp.GatePark()
	}
	status := 0
	var latest sim.Cycles
	for _, h := range handles {
		if s := h.Wait(); s != 0 {
			status = s
		}
		if e := h.EndTime(); e > latest {
			latest = e
		}
	}
	if parked {
		if ck, ok := p.FS.(sched.Clocked); ok && latest > ck.Clock() {
			ck.AdvanceClock(latest)
		}
		gp.GateResume()
	}
	return status
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM in
// /proc/self/status); 0 where there is none.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, _ := strconv.ParseUint(fields[0], 10, 64)
				return float64(kb) / 1024
			}
		}
	}
	return 0
}
