package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/fsapi"
	"repro/internal/trace"
)

// workloadInfo names one workload and records why it is in the benchmark.
type workloadInfo struct {
	name string
	why  string
}

// workloadList is the fixed set, in the order -all runs it. The sizes are
// in the constructors below; each timed region is sized for about 2 s of
// wall time on two cores.
var workloadList = []workloadInfo{
	{"meta_churn", "create/write/close/unlink in one shared distributed directory: client, proto, msg, server and table do the work"},
	{"tree_walk", "read-only readdir/stat/open/read walk of a built tree: the lookup side of the same layers, zero mutations"},
	{"data_stream", "sequential writes, verified reads and sparse overwrites of 1 MiB files, each on its worker's own server: ncc does the work at 0.02 messages per op"},
	{"durable_mail", "maildir delivery with WAL and sync replication: the only workload with wal and repl on every mutation's path"},
	{"scale_fanout", "64 servers, private subtrees, 256k files, serialized engine: big tables, big arrival heap, hundreds of endpoints"},
	{"scale_fanout_par", "the same stream at 32k files under the parallel engine: the only place sim.Gate and lane lifecycle run"},
}

// newWorkload derives one workload's whole op stream from the seed. scale
// multiplies the iteration counts; 1 is the benchmark, the smoke test uses a
// small fraction.
func newWorkload(name string, seed uint64, scale float64) (workload, error) {
	n := func(full int) int { return max(1, int(float64(full)*scale)) }
	rng := rand.New(rand.NewPCG(seed, 0x68617265)) // "hare"
	switch name {
	case "meta_churn":
		return newMetaChurn(rng, n(64_000), n(15_000)), nil
	case "tree_walk":
		return newTreeWalk(rng, 8, max(2, n(32)), max(4, n(96)), 2, n(10_000)), nil
	case "data_stream":
		return newDataStream(rng, n(256), max(2, n(3000)), n(64_000)), nil
	case "durable_mail":
		return newDurableMail(rng, n(16_000), n(300)), nil
	case "scale_fanout":
		return newScaleFanout(rng, max(8, n(64)), n(4000), n(1000), false), nil
	case "scale_fanout_par":
		return newScaleFanout(rng, max(8, n(64)), n(512), n(1000), true), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const workers8 = 8

// uniqueName is a name no other (tag, i) pair produces; the random suffix,
// of 1 to 32 hex digits, moves its hash and its length — and with them the
// shard that stores the entry and the 64-byte lines its messages take on the
// wire — with the seed.
func uniqueName(rng *rand.Rand, tag string, i int) string {
	suffix := fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
	return fmt.Sprintf("%s%06d-%s", tag, i, suffix[:1+rng.IntN(len(suffix))])
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// ---- meta_churn ----

// metaChurn is the metadata mutation path: every worker creates, writes 64
// bytes to, closes and unlinks files in one shared distributed directory
// that already holds the resident set.
type metaChurn struct {
	resident []string   // full paths, created by setup
	names    [][]string // per worker, full paths of the churned files
	payload  []byte
}

const churnDir = "/churn"

func newMetaChurn(rng *rand.Rand, resident, perWorker int) *metaChurn {
	m := &metaChurn{payload: randomBytes(rng, 64)}
	for i := 0; i < resident; i++ {
		m.resident = append(m.resident, churnDir+"/"+uniqueName(rng, "r", i))
	}
	m.names = make([][]string, workers8)
	for w := range m.names {
		for i := 0; i < perWorker; i++ {
			m.names[w] = append(m.names[w], churnDir+"/"+uniqueName(rng, fmt.Sprintf("t%d-", w), i))
		}
	}
	return m
}

func (m *metaChurn) deployment() deployment { return deployment{cores: workers8} }
func (m *metaChurn) callsPerWorker() int    { return 4 * len(m.names[0]) }
func (m *metaChurn) exampleName() string    { return m.names[0][0] }

func (m *metaChurn) setup(w *worker) { w.mkdir(churnDir, true) }

func (m *metaChurn) populate(w *worker) {
	for i := w.idx; i < len(m.resident); i += workers8 {
		w.touch(m.resident[i])
	}
}

func (m *metaChurn) run(w *worker) {
	for _, path := range m.names[w.idx] {
		fd, ok := w.open(path, fsapi.OCreate|fsapi.OWrOnly)
		if !ok {
			continue
		}
		w.write(fd, m.payload, 0)
		w.close(fd)
		w.unlink(path)
	}
}

// check: the directory holds exactly the resident entries again.
func (m *metaChurn) check(w *worker, _ *repetition) {
	ents, ok := w.readdir(churnDir)
	if !ok {
		return
	}
	want := make([]string, len(m.resident))
	for i, path := range m.resident {
		want[i] = path[len(churnDir)+1:]
	}
	sort.Strings(want)
	got := make([]string, len(ents))
	for i, e := range ents {
		got[i] = e.Name
	}
	if !slices.Equal(got, want) {
		w.fail("meta_churn: %s holds %d entries, want the %d resident ones", churnDir, len(got), len(want))
	}
}

// ---- tree_walk ----

// treeWalk is the lookup path: a built tree of top-level distributed
// directories × subdirectories × small files, walked read-only by every
// worker (readdir, stat every entry, open/read/close every 4th file), the
// subdirectories in an order of the worker's own.
type treeWalk struct {
	tops, subs, files, walks int
	// cold is how many empty files set-up leaves in a directory no walk
	// enters, so that the servers' tables hold more than the walked tree.
	cold int
	// The names at each level, sorted as readdir returns them, and every
	// path built from them: subPaths[t*subs+s], filePaths[(t*subs+s)*files+f].
	topNames, subNames, fileNames []string
	topPaths, subPaths, filePaths []string
	content                       []byte // file f holds content[f : f+treeFileSize]
	// order[worker][walk] is the order in which that walk visits the
	// subdirectories. Each is its own permutation: workers that walked in
	// step would queue behind each other at one server after another, and
	// how long such a convoy lasts is an accident of goroutine scheduling.
	order [][][]int
}

const (
	treeRoot     = "/tree"
	treeCold     = "/tree-cold"
	treeFileSize = 256
)

func newTreeWalk(rng *rand.Rand, tops, subs, files, walks, cold int) *treeWalk {
	t := &treeWalk{tops: tops, subs: subs, files: files, walks: walks, cold: cold}
	names := func(tag string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = uniqueName(rng, tag, i)
		}
		sort.Strings(out)
		return out
	}
	t.topNames, t.subNames, t.fileNames = names("top", tops), names("sub", subs), names("f", files)
	for _, top := range t.topNames {
		t.topPaths = append(t.topPaths, treeRoot+"/"+top)
		for _, sub := range t.subNames {
			dir := treeRoot + "/" + top + "/" + sub
			t.subPaths = append(t.subPaths, dir)
			for _, file := range t.fileNames {
				t.filePaths = append(t.filePaths, dir+"/"+file)
			}
		}
	}
	t.content = randomBytes(rng, treeFileSize+files)
	t.order = make([][][]int, workers8)
	for w := range t.order {
		for walk := 0; walk < walks; walk++ {
			t.order[w] = append(t.order[w], rng.Perm(tops*subs))
		}
	}
	return t
}

func (t *treeWalk) deployment() deployment { return deployment{cores: workers8} }
func (t *treeWalk) exampleName() string    { return t.fileNames[0] }

// entries is the number of directory entries below the root.
func (t *treeWalk) entries() int { return t.tops * (1 + t.subs*(1+t.files)) }

func (t *treeWalk) callsPerWorker() int {
	dirs := 1 + t.tops*(1+t.subs)
	reads := t.tops * t.subs * ((t.files + 3) / 4)
	return t.walks * (dirs + t.entries() + 3*reads)
}

func (t *treeWalk) setup(w *worker) {
	w.mkdir(treeCold, true)
	w.mkdir(treeRoot, true)
	for _, top := range t.topPaths {
		w.mkdir(top, true)
	}
}

func (t *treeWalk) populate(w *worker) {
	for i := w.idx; i < t.cold; i += workers8 {
		w.touch(fmt.Sprintf("%s/cold%05d", treeCold, i))
	}
	for d := w.idx; d < len(t.subPaths); d += workers8 {
		w.mkdir(t.subPaths[d], false)
		for f := 0; f < t.files; f++ {
			fd, ok := w.open(t.filePaths[d*t.files+f], fsapi.OCreate|fsapi.OWrOnly)
			if !ok {
				continue
			}
			w.write(fd, t.content[f:f+treeFileSize], 0)
			w.close(fd)
		}
	}
}

// lists reports whether a directory listing holds exactly the given names.
func lists(ents []fsapi.Dirent, names []string) bool {
	if len(ents) != len(names) {
		return false
	}
	for i, e := range ents {
		if e.Name != names[i] {
			return false
		}
	}
	return true
}

func (t *treeWalk) run(w *worker) {
	buf := make([]byte, treeFileSize)
	for walk := 0; walk < t.walks; walk++ {
		visited := 0
		if tops, _ := w.readdir(treeRoot); !lists(tops, t.topNames) {
			w.fail("tree_walk: %s does not list the %d directories built", treeRoot, t.tops)
		}
		for _, top := range t.topPaths {
			w.stat(top)
			visited++
			if subs, _ := w.readdir(top); !lists(subs, t.subNames) {
				w.fail("tree_walk: %s does not list the %d directories built", top, t.subs)
			}
		}
		for _, d := range t.order[w.idx][walk] {
			w.stat(t.subPaths[d])
			visited++
			if files, _ := w.readdir(t.subPaths[d]); !lists(files, t.fileNames) {
				w.fail("tree_walk: %s does not list the %d files built", t.subPaths[d], t.files)
			}
			for f := 0; f < t.files; f++ {
				path := t.filePaths[d*t.files+f]
				st, ok := w.stat(path)
				visited++
				if ok && st.Size != treeFileSize {
					w.fail("tree_walk: %s has size %d", path, st.Size)
				}
				if f%4 != 0 {
					continue
				}
				fd, ok := w.open(path, fsapi.ORdOnly)
				if !ok {
					continue
				}
				if w.read(fd, buf, 0) && !bytes.Equal(buf, t.content[f:f+treeFileSize]) {
					w.fail("tree_walk: %s has the wrong content", path)
				}
				w.close(fd)
			}
		}
		if visited != t.entries() {
			w.fail("tree_walk: walk visited %d entries, built %d", visited, t.entries())
		}
	}
}

func (t *treeWalk) check(*worker, *repetition) {}

// ---- data_stream ----

// dataStream is the data path: every worker writes a file of `blocks` 4 KiB
// blocks sequentially, then in each round re-opens it, reads it back in
// 8 KiB pieces verified against the expected image, and overwrites 64 bytes
// at the start of every 4th block.
//
// Each worker's file lives in a directory homed on the server that shares
// the worker's core — the layout creation affinity aims for. The workers
// send a request only every ~1500 calls, so nothing keeps their virtual
// clocks together, and a request to another core's server is served after
// whatever that core's worker has already consumed: with files placed by
// name hash, an open or close took up to 2 ms of virtual time depending on
// how far the host's scheduler had let the other worker run ahead, and
// virt_kops_per_s wandered by a tenth between runs of one seed.
//
// The files are 1 MiB, not the 16 MiB first tried: eight of those, their
// private-cache copies and the expected image make 270 MiB that every round
// streams through, and the host time per call followed the memory bandwidth
// the box's other tenants left (0.49 µs one hour, 0.68 µs the next).
type dataStream struct {
	blocks, rounds, resident int
	dirNames                 []string // candidate home directories, tried in order
	fileNames                []string // per worker
	base                     []byte   // the image every worker writes first
	patches                  []byte   // pool the 64-byte overwrites are cut from

	// Found by each repetition's setup and run; the same every time.
	homeOn []string // per server, the first candidate directory homed there
	paths  []string // per worker, its file
}

const (
	streamRoot = "/stream"
	blockSize  = 4096
	readSize   = 2 * blockSize
	patchSize  = 64
)

func newDataStream(rng *rand.Rand, blocks, rounds, resident int) *dataStream {
	blocks = max(4, blocks&^3)
	d := &dataStream{
		blocks:   blocks,
		rounds:   rounds,
		resident: resident,
		base:     randomBytes(rng, blocks*blockSize),
		patches:  randomBytes(rng, 1<<16),
		paths:    make([]string, workers8),
	}
	// With 256 candidates, one of eight servers homes none of them once in
	// 10^14 seeds.
	for i := 0; i < 256; i++ {
		d.dirNames = append(d.dirNames, streamRoot+"/"+uniqueName(rng, "d", i))
	}
	for w := 0; w < workers8; w++ {
		d.fileNames = append(d.fileNames, uniqueName(rng, "w", w))
	}
	return d
}

func (d *dataStream) deployment() deployment { return deployment{cores: workers8} }
func (d *dataStream) exampleName() string    { return d.fileNames[0] }

func (d *dataStream) callsPerWorker() int {
	return 2 + d.blocks + d.rounds*(2+d.blocks/2+d.blocks/4)
}

// patch is the 64 bytes worker idx writes over block b in the given round.
func (d *dataStream) patch(idx, round, b int) []byte {
	off := (idx*7919 + round*104729 + b*31) % (len(d.patches) - patchSize)
	return d.patches[off : off+patchSize]
}

// populate leaves empty resident neighbours, so that the servers' tables are
// not empty and the buffer cache is left to the streamed files.
func (d *dataStream) populate(w *worker) {
	for i := w.idx; i < d.resident; i += workers8 {
		w.touch(fmt.Sprintf("%s/resident%05d", streamRoot, i))
	}
}

func (d *dataStream) setup(w *worker) {
	w.mkdir(streamRoot, true)
	d.homeOn = make([]string, workers8)
	for homed, i := 0, 0; homed < workers8; i++ {
		if i == len(d.dirNames) {
			w.fail("data_stream: %d candidate directories left a server without one", i)
			return
		}
		w.mkdir(d.dirNames[i], false)
		if st, ok := w.stat(d.dirNames[i]); ok && d.homeOn[st.Server] == "" {
			d.homeOn[st.Server] = d.dirNames[i]
			homed++
		}
	}
}

func (d *dataStream) run(w *worker) {
	// Server s runs on core s.
	path := d.homeOn[w.p.Core()] + "/" + d.fileNames[w.idx]
	d.paths[w.idx] = path
	fd, ok := w.open(path, fsapi.OCreate|fsapi.OWrOnly)
	if !ok {
		return
	}
	for b := 0; b < d.blocks; b++ {
		w.write(fd, d.base[b*blockSize:(b+1)*blockSize], int64(b)*blockSize)
	}
	w.close(fd)

	buf := make([]byte, readSize)
	for round := 0; round < d.rounds; round++ {
		fd, ok := w.open(path, fsapi.ORdWr)
		if !ok {
			return
		}
		for b := 0; b < d.blocks; b += 2 {
			off := b * blockSize
			if !w.read(fd, buf, int64(off)) {
				continue
			}
			want := d.base[off : off+readSize]
			// Blocks 0, 4, 8, … start with the previous round's patch.
			head := 0
			if b%4 == 0 && round > 0 {
				head = patchSize
				if !bytes.Equal(buf[:head], d.patch(w.idx, round-1, b)) {
					w.fail("data_stream: %s block %d lost its overwrite", path, b)
				}
			}
			if !bytes.Equal(buf[head:], want[head:]) {
				w.fail("data_stream: %s block %d differs from what was written", path, b)
			}
		}
		for b := 0; b < d.blocks; b += 4 {
			w.write(fd, d.patch(w.idx, round, b), int64(b)*blockSize)
		}
		w.close(fd)
	}
}

func (d *dataStream) check(w *worker, _ *repetition) {
	for _, path := range d.paths {
		if st, ok := w.stat(path); ok && st.Size != int64(d.blocks)*blockSize {
			w.fail("data_stream: %s has size %d", path, st.Size)
		}
	}
}

// ---- durable_mail ----

// durableMail is maildir delivery on a durable, replicated deployment:
// create in tmp/, write, fsync, close, rename into new/; after every 16
// deliveries the worker lists new/, reads each message back and unlinks it.
type durableMail struct {
	archived, batches int
	// Per worker and message, the path it is written under and the path it
	// is renamed to.
	tmpPaths, newPaths [][]string
	pool               []byte // message i of worker w is a slice of pool
}

const (
	mailRoot  = "/mail"
	mailSize  = 1500
	mailBatch = 16
)

func newDurableMail(rng *rand.Rand, archived, batches int) *durableMail {
	m := &durableMail{archived: archived, batches: batches, pool: randomBytes(rng, 1<<16)}
	m.tmpPaths, m.newPaths = make([][]string, workers8), make([][]string, workers8)
	for w := range m.tmpPaths {
		for i := 0; i < batches*mailBatch; i++ {
			name := uniqueName(rng, "m", i)
			m.tmpPaths[w] = append(m.tmpPaths[w], mailbox(w)+"/tmp/"+name)
			m.newPaths[w] = append(m.newPaths[w], mailbox(w)+"/new/"+name)
		}
	}
	return m
}

func (m *durableMail) deployment() deployment { return deployment{cores: workers8, durable: true} }
func (m *durableMail) callsPerWorker() int    { return m.batches * (5*mailBatch + 1 + 4*mailBatch) }
func (m *durableMail) exampleName() string    { return m.newPaths[0][0] }

func (m *durableMail) body(idx, i int) []byte {
	off := (idx*7919 + i*131) % (len(m.pool) - mailSize)
	return m.pool[off : off+mailSize]
}

func mailbox(idx int) string { return fmt.Sprintf("%s/u%d", mailRoot, idx) }

func (m *durableMail) setup(w *worker) {
	w.mkdir(mailRoot, true)
	for u := 0; u < workers8; u++ {
		w.mkdir(mailbox(u), false)
		for _, sub := range []string{"tmp", "new", "cur"} {
			w.mkdir(mailbox(u)+"/"+sub, false)
		}
	}
}

// populate archives mail delivered earlier, so that no mailbox is empty.
func (m *durableMail) populate(w *worker) {
	for i := 0; i < m.archived/workers8; i++ {
		if fd, ok := w.open(fmt.Sprintf("%s/cur/old%05d", mailbox(w.idx), i), fsapi.OCreate|fsapi.OWrOnly); ok {
			w.write(fd, m.body(w.idx, i), 0)
			w.close(fd)
		}
	}
}

func (m *durableMail) run(w *worker) {
	inbox := mailbox(w.idx) + "/new"
	buf := make([]byte, mailSize)
	tmp, delivered := m.tmpPaths[w.idx], m.newPaths[w.idx]
	for first := 0; first < len(tmp); first += mailBatch {
		for i := first; i < first+mailBatch; i++ {
			fd, ok := w.open(tmp[i], fsapi.OCreate|fsapi.OWrOnly)
			if !ok {
				continue
			}
			w.write(fd, m.body(w.idx, i), 0)
			w.fsync(fd)
			w.close(fd)
			w.rename(tmp[i], delivered[i])
		}
		if ents, _ := w.readdir(inbox); len(ents) != mailBatch {
			w.fail("durable_mail: %s lists %d messages, want %d", inbox, len(ents), mailBatch)
		}
		for i := first; i < first+mailBatch; i++ {
			fd, ok := w.open(delivered[i], fsapi.ORdOnly)
			if !ok {
				continue
			}
			if w.read(fd, buf, 0) && !bytes.Equal(buf, m.body(w.idx, i)) {
				w.fail("durable_mail: %s is not the message that was delivered", delivered[i])
			}
			w.close(fd)
			w.unlink(delivered[i])
		}
	}
}

func (m *durableMail) check(w *worker, rep *repetition) {
	for u := 0; u < workers8; u++ {
		for sub, want := range map[string]int{"tmp": 0, "new": 0, "cur": m.archived / workers8} {
			if ents, ok := w.readdir(mailbox(u) + "/" + sub); ok && len(ents) != want {
				w.fail("durable_mail: %s/%s holds %d entries, want %d", mailbox(u), sub, len(ents), want)
			}
		}
	}
	if rep.WalRecords == 0 {
		w.fail("durable_mail: the write-ahead log recorded nothing")
	}
	if rep.ReplMaxLag != 0 {
		w.fail("durable_mail: a follower is %d records behind under sync replication", rep.ReplMaxLag)
	}
}

// ---- scale_fanout and scale_fanout_par ----

// scaleFanout keeps the shape of the harness-scaling sweep (BENCH_scale.json):
// every worker builds a private subtree (one directory per 512 files, create
// and close each file, then stat every 8th), on as many servers as workers.
// The parallel variant runs the same stream under the parallel engine and
// checks it against one serialized run.
type scaleFanout struct {
	workers, files, resident int
	parallel                 bool
	names                    [][]string // per worker, full paths in creation order
	dirs                     [][]string // per worker, its directories, parents first
	residentNames            []string   // per worker subtree, names created by setup

	digest [sha256.Size]byte // of the namespace listing the last check saw
	twin   *scaleTwin        // the serialized run of a parallel stream, made once
}

type scaleTwin struct {
	counters []uint64
	listing  [sha256.Size]byte
}

const (
	scaleRoot    = "/scale"
	filesPerDir  = 512
	scaleStatNth = 8
)

func newScaleFanout(rng *rand.Rand, workers, files, resident int, parallel bool) *scaleFanout {
	s := &scaleFanout{workers: workers, files: files, resident: resident, parallel: parallel}
	ndirs := (files + filesPerDir - 1) / filesPerDir
	for w := 0; w < workers; w++ {
		root := s.subtree(w)
		dirs := []string{}
		for d := 0; d < ndirs; d++ {
			dirs = append(dirs, fmt.Sprintf("%s/d%04d", root, d))
		}
		var names []string
		for i := 0; i < files; i++ {
			names = append(names, dirs[i%ndirs]+"/"+uniqueName(rng, "f", i))
		}
		s.dirs = append(s.dirs, dirs)
		s.names = append(s.names, names)
	}
	for i := 0; i < resident; i++ {
		s.residentNames = append(s.residentNames, uniqueName(rng, "r", i))
	}
	return s
}

func (s *scaleFanout) deployment() deployment {
	return deployment{cores: s.workers, parallel: s.parallel}
}

func (s *scaleFanout) exampleName() string { return s.names[0][0] }

func (s *scaleFanout) callsPerWorker() int {
	return len(s.dirs[0]) + 2*s.files + (s.files+scaleStatNth-1)/scaleStatNth
}

// setup makes every subtree's directories from the one root process, so
// that they are homed where the harness-scaling sweep's are.
func (s *scaleFanout) setup(w *worker) {
	w.mkdir(scaleRoot, true)
	for i := 0; i < s.workers; i++ {
		w.mkdir(s.subtree(i), false)
		w.mkdir(s.subtree(i)+"/resident", false)
	}
}

func (s *scaleFanout) subtree(i int) string { return fmt.Sprintf("%s/w%04d", scaleRoot, i) }

func (s *scaleFanout) populate(w *worker) {
	for i := w.idx; i < s.workers; i += workers8 {
		for _, name := range s.residentNames {
			w.touch(s.subtree(i) + "/resident/" + name)
		}
	}
}

func (s *scaleFanout) run(w *worker) {
	for _, dir := range s.dirs[w.idx] {
		w.mkdir(dir, false)
	}
	names := s.names[w.idx]
	for _, path := range names {
		w.touch(path)
	}
	for i := 0; i < len(names); i += scaleStatNth {
		w.stat(names[i])
	}
}

// check: every subtree lists exactly what its worker created; the parallel
// stream also equals its serialized twin in every exact counter and in the
// digest of the sorted namespace listing.
func (s *scaleFanout) check(w *worker, rep *repetition) {
	s.digest = s.listing(w)
	if !s.parallel {
		return
	}
	if s.twin == nil {
		serial := *s
		serial.parallel = false
		twinRep, err := runRepetition(&serial, trace.Config{})
		if err != nil {
			w.fail("scale_fanout_par: serialized twin: %v", err)
			return
		}
		s.twin = &scaleTwin{counters: twinRep.exactCounters(), listing: serial.digest}
	}
	// Traced requests carry their trace context, so a traced pass moves more
	// bytes than the untraced twin; its namespace must still be the twin's.
	if got := rep.exactCounters(); !rep.traced && !slices.Equal(got, s.twin.counters) {
		w.fail("scale_fanout_par: exact counters %v differ from the serialized twin's %v", got, s.twin.counters)
	}
	if s.digest != s.twin.listing {
		w.fail("scale_fanout_par: the namespace listing differs from the serialized twin's")
	}
}

// listing walks the whole namespace, compares each worker's subtree with the
// names the worker was given, and returns a digest of the sorted listing.
func (s *scaleFanout) listing(w *worker) [sha256.Size]byte {
	h := sha256.New()
	roots, _ := w.readdir(scaleRoot)
	if len(roots) != s.workers {
		w.fail("scale_fanout: %s holds %d subtrees, want %d", scaleRoot, len(roots), s.workers)
	}
	for i, r := range roots {
		root := scaleRoot + "/" + r.Name
		dirs, _ := w.readdir(root)
		var got []string
		for _, d := range dirs {
			files, _ := w.readdir(root + "/" + d.Name)
			for _, f := range files {
				path := root + "/" + d.Name + "/" + f.Name
				fmt.Fprintln(h, path)
				if d.Name != "resident" {
					got = append(got, path)
				}
			}
		}
		if i >= len(s.names) {
			continue
		}
		want := slices.Clone(s.names[i])
		sort.Strings(want)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			w.fail("scale_fanout: %s lists %d files, want the %d created", root, len(got), len(want))
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
