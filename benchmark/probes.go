package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/msg"
	"repro/internal/ncc"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/wal"
)

// operatingPoint is where on each layer's cost curve the workload ran, as
// the workload's own counters report it. The probes are taken there.
type operatingPoint struct {
	op       proto.Op // the most frequent server op
	name     string   // a directory-entry name as the requests carried
	dataLen  int      // payload bytes of a mean request beyond its header
	batchLen int      // sub-ops per batch envelope (at least 2)
	entries  int      // directory entries per server
	servers  int
	// endpoints is servers + scheduling servers + one client per worker;
	// lanes is the clients, the endpoints that publish a frontier.
	endpoints, lanes int
	queueDepth       int // requests waiting at a server, by Little's law
	parallel         bool
}

func pointOf(rep *repetition, dep deployment, name string) operatingPoint {
	pt := operatingPoint{
		name:      name,
		batchLen:  2,
		entries:   int(rep.entries) / dep.cores,
		servers:   dep.cores,
		endpoints: 3 * dep.cores,
		lanes:     dep.cores,
		parallel:  dep.parallel,
	}
	var top uint64
	for op, n := range rep.opMix {
		if n > top || n == top && op < pt.op {
			pt.op, top = op, n
		}
	}
	if rep.Econ.Msgs > 0 {
		// Requests and replies share the bytes; 64 is the fixed header.
		pt.dataLen = max(0, int(rep.Econ.Bytes/rep.Econ.Msgs)-64-len(name))
	}
	if batches := rep.Econ.ClientRPCs; rep.Econ.BatchedOps > 0 && batches > 0 {
		pt.batchLen = min(proto.MaxBatchOps, max(2, int(rep.Econ.BatchedOps*2/batches)))
	}
	if rep.VirtCycles > 0 {
		pt.queueDepth = int(rep.Econ.QueueCycles / (rep.VirtCycles * uint64(dep.cores)))
	}
	pt.queueDepth++
	return pt
}

// prober runs the probes and keeps the benchmark's span around each.
type prober struct {
	// batch is how long one timed batch of a probe runs; three are taken.
	batch  time.Duration
	began  time.Time
	spans  []probeSpan
	result map[string]float64
}

// measure reports the median nanoseconds per iteration of three batches of
// body(n), each sized to run for about p.batch.
func (p *prober) measure(name string, body func(n int)) float64 {
	start := time.Since(p.began)
	n := 1
	var per float64
	for {
		t := time.Now()
		body(n)
		d := time.Since(t)
		per = float64(d) / float64(n)
		if d >= p.batch/4 || n >= 1<<24 {
			break
		}
		n *= 4
	}
	n = max(1, int(float64(p.batch)/max(per, 0.5)))
	var runs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		body(n)
		runs = append(runs, float64(time.Since(t))/float64(n))
	}
	p.spans = append(p.spans, probeSpan{name, start, time.Since(p.began)})
	p.result[name] = median(runs)
	return p.result[name]
}

// runProbes calls each layer's public functions in isolation at the
// operating point and returns nanoseconds (or allocations) per call by
// metric name.
func runProbes(pt operatingPoint, batch time.Duration) (map[string]float64, []probeSpan) {
	p := &prober{batch: batch, began: time.Now(), result: make(map[string]float64)}
	p.proto(pt)
	p.msg(pt)
	p.sim(pt)
	p.tables(pt)
	p.ncc()
	p.durability(pt)
	p.clientFloor(pt)
	return p.result, p.spans
}

func (p *prober) proto(pt operatingPoint) {
	dir := proto.InodeID{Server: 1, Local: 42}
	req := &proto.Request{Op: pt.op, ClientID: 7, Epoch: 1, Dir: dir, Name: pt.name,
		Target: proto.InodeID{Server: 2, Local: 4242}, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644,
		Flags: fsapi.OCreate | fsapi.OWrOnly, Data: make([]byte, pt.dataLen), WantOpen: true}
	resp := &proto.Response{Ino: req.Target, Server: 2, Ftype: fsapi.TypeRegular, Size: 4096, Fd: 9,
		Extents: []proto.Extent{{Start: 1000, Count: 1}}, Version: 3, Data: make([]byte, pt.dataLen),
		Stat: proto.StatWire{Ino: req.Target, Ftype: fsapi.TypeRegular, Size: 4096, Nlink: 1, Mode: fsapi.Mode644}}

	buf := make([]byte, 0, req.SizeHint()+resp.SizeHint())
	p.measure("proto.req_marshal_ns", func(n int) {
		for i := 0; i < n; i++ {
			buf = req.AppendTo(buf[:0])
		}
	})
	wire := req.Marshal()
	var into proto.Request
	p.measure("proto.req_unmarshal_ns", func(n int) {
		for i := 0; i < n; i++ {
			_ = proto.UnmarshalRequestInto(&into, wire)
		}
	})
	p.measure("proto.resp_marshal_ns", func(n int) {
		for i := 0; i < n; i++ {
			buf = resp.AppendTo(buf[:0])
		}
	})
	wire = resp.Marshal()
	var rinto proto.Response
	p.measure("proto.resp_unmarshal_ns", func(n int) {
		for i := 0; i < n; i++ {
			_ = proto.UnmarshalResponseInto(&rinto, wire)
		}
	})

	reqs := make([]*proto.Request, pt.batchLen)
	resps := make([]*proto.Response, pt.batchLen)
	for i := range reqs {
		reqs[i], resps[i] = req, resp
	}
	perBatch := p.measure("proto.batch_roundtrip_ns", func(n int) {
		for i := 0; i < n; i++ {
			subs, _, _ := proto.UnmarshalBatch(proto.MarshalBatch(reqs, true))
			out, _ := proto.UnmarshalBatchResponses(proto.MarshalBatchResponses(resps))
			if len(subs) != len(out) {
				panic("benchmark: batch round trip lost a sub-op")
			}
		}
	})
	p.result["proto.batch_roundtrip_ns"] = perBatch / float64(pt.batchLen) // per sub-op
}

// echoNetwork is a network with pt.endpoints endpoints, one of which echoes
// every request from its own goroutine the way a server's loop pops and
// replies; stop ends that goroutine and waits for it.
func echoNetwork(pt operatingPoint, gate *sim.Gate) (n *msg.Network, cli, srv *msg.Endpoint, stop func()) {
	cores := max(2, pt.servers)
	n = msg.NewNetwork(msg.WrapMachine(sim.NewMachine(sim.TopologyForCores(cores), sim.DefaultCostModel())))
	cli, srv = n.NewEndpoint(0), n.NewEndpoint(1)
	for i := 2; i < pt.endpoints; i++ {
		n.NewEndpoint(i % cores)
	}
	if gate != nil {
		n.SetGate(gate)
		// The other lanes are far ahead: they are scanned but never hold
		// the echo back.
		for i := 1; i < pt.lanes; i++ {
			gate.Bump(1+i, 1<<60)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			env, ok := srv.Inbox.PopWaitEarliestGated(gate)
			if !ok {
				return
			}
			size := len(env.Payload)
			srv.PutBuf(env.Payload)
			n.Reply(srv, env, env.Kind, srv.GetBuf(size)[:size], env.ArriveAt)
		}
	}()
	return n, cli, srv, func() {
		srv.Inbox.Close()
		<-done
	}
}

func (p *prober) msg(pt operatingPoint) {
	size := 64 + len(pt.name) + pt.dataLen
	echo := func(gate *sim.Gate) func(n int) {
		net, cli, srv, stop := echoNetwork(pt, gate)
		var now sim.Cycles
		return func(n int) {
			if n == 0 {
				stop()
				return
			}
			for i := 0; i < n; i++ {
				env, err := net.RPC(cli, srv.ID, proto.KindRequest, cli.GetBuf(size)[:size], now)
				if err != nil {
					panic("benchmark: echo rpc: " + err.Error())
				}
				now = env.ArriveAt
				cli.PutBuf(env.Payload)
			}
		}
	}
	plain := echo(nil)
	p.measure("msg.rpc_echo_ns", plain)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rpcs = 2000
	plain(rpcs)
	runtime.ReadMemStats(&after)
	p.result["msg.allocs_per_rpc"] = float64(after.Mallocs-before.Mallocs) / rpcs
	plain(0)

	gated := echo(sim.NewGate())
	p.measure("msg.rpc_echo_gated_ns", gated)
	gated(0)

	q := msg.NewQueue()
	var at sim.Cycles
	for ; at < sim.Cycles(pt.queueDepth); at++ {
		q.Push(msg.Envelope{ArriveAt: at * 1000, Src: msg.EndpointID(at)})
	}
	p.measure("msg.queue_push_pop_ns", func(n int) {
		for i := 0; i < n; i++ {
			at++
			// Arrivals a little out of order, as concurrent senders push them.
			q.Push(msg.Envelope{ArriveAt: (at ^ 3) * 1000, Src: msg.EndpointID(at & 63)})
			q.PopWaitEarliest()
		}
	})
}

func (p *prober) sim(pt operatingPoint) {
	g := sim.NewGate()
	var t sim.Cycles
	for i := 0; i < pt.lanes; i++ {
		g.Bump(i, 1)
	}
	p.measure("sim.gate_bump_ns", func(n int) {
		for i := 0; i < n; i++ {
			t++
			g.Bump(i%pt.lanes, t)
		}
	})
	// Asking about a time ahead of the slowest lane takes the full scan.
	p.measure("sim.gate_safeat_ns", func(n int) {
		for i := 0; i < n; i++ {
			if g.SafeAt(1 << 61) {
				panic("benchmark: a time beyond every frontier reported safe")
			}
		}
	})

	cores := max(2, pt.servers)
	m := sim.NewMachine(sim.TopologyForCores(cores), sim.DefaultCostModel())
	ready := make([]sim.Cycles, cores)
	p.measure("sim.coretime_execute_ns", func(n int) {
		for i := 0; i < n; i++ {
			c := i % cores
			ready[c] = m.Execute(c, ready[c], 2000)
		}
	})
}

func (p *prober) tables(pt operatingPoint) {
	entries := max(16, pt.entries)
	flat := table.New[uint64, uint64](table.HashU64, 0)
	sharded := table.NewSharded[string, uint64](table.HashString, 0)
	names := make([]string, min(entries, 1024))
	for i := 0; i < entries; i++ {
		flat.Put(uint64(i), uint64(i))
		name := pt.name + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676%26)) + string(rune('a'+i/17576%26))
		sharded.Put(name, uint64(i))
		names[i%len(names)] = name
	}
	p.measure("table.get_ns", func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := flat.Get(uint64(i*7919) % uint64(entries)); !ok {
				panic("benchmark: table lost a key")
			}
		}
	})
	p.measure("table.put_delete_ns", func(n int) {
		for i := 0; i < n; i++ {
			k := uint64(entries + i)
			flat.Put(k, k)
			flat.Delete(k)
		}
	})
	p.measure("table.sharded_get_ns", func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := sharded.Get(names[i%len(names)]); !ok {
				panic("benchmark: sharded table lost a key")
			}
		}
	})
	m := place.Initial(place.PolicyModulo, pt.servers)
	var sink int32
	p.measure("place.route_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += m.Route(uint64(i) * 0x9e3779b97f4a7c15)
		}
	})
	_ = sink
}

func (p *prober) ncc() {
	const blocks = 1024
	dram := ncc.NewDRAM(blocks, blockSize)
	cache := ncc.NewPrivateCache(dram)
	buf := make([]byte, blockSize)
	for b := 0; b < blocks; b++ {
		cache.Read(ncc.BlockID(b), 0, buf)
	}
	p.measure("ncc.read_hit_ns_per_4k", func(n int) {
		for i := 0; i < n; i++ {
			cache.Read(ncc.BlockID(i%blocks), 0, buf)
		}
	})
	p.measure("ncc.write_ns_per_4k", func(n int) {
		for i := 0; i < n; i++ {
			cache.Write(ncc.BlockID(i%blocks), 0, buf)
		}
	})
	// One dirty 64-byte line per block, then a dirty-line writeback of the
	// lot: the cost per line moved, the write that dirtied it included.
	all := []ncc.Extent{{Start: 0, Count: blocks}}
	cache.WritebackExtents(all, true)
	perPass := p.measure("ncc.writeback_ns_per_line", func(n int) {
		for i := 0; i < n; i++ {
			for b := 0; b < blocks; b++ {
				cache.Write(ncc.BlockID(b), 0, buf[:patchSize])
			}
			if _, lines := cache.WritebackExtents(all, true); lines != blocks {
				panic("benchmark: dirty-line writeback moved the wrong number of lines")
			}
		}
	})
	p.result["ncc.writeback_ns_per_line"] = perPass / blocks
}

func (p *prober) durability(pt operatingPoint) {
	dir := proto.InodeID{Server: 1, Local: 42}
	recs := []wal.Record{
		{Type: wal.RecInode, Ino: 7, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Nlink: 1},
		{Type: wal.RecAddMap, Dir: dir, Name: pt.name, Target: proto.InodeID{Server: 1, Local: 7}, Ftype: fsapi.TypeRegular},
		{Type: wal.RecRmMap, Dir: dir, Name: pt.name},
		{Type: wal.RecNlink, Ino: 7, Nlink: 0},
	}
	per := float64(len(recs))

	cost := sim.DefaultCostModel()
	log, err := wal.Open(wal.Config{Store: wal.NewMemStore(), GroupCommitInterval: 24_000,
		FlushCycles: cost.WalFlush, AppendPerLine: cost.WalPerLine})
	if err != nil {
		panic("benchmark: opening a memory log: " + err.Error())
	}
	var now sim.Cycles
	p.result["wal.append_ns_per_record"] = p.measure("wal.append_ns_per_record", func(n int) {
		for i := 0; i < n; i++ {
			now += 3000
			if _, _, err := log.Append(recs, now); err != nil {
				panic("benchmark: log append: " + err.Error())
			}
		}
	}) / per
	p.result["wal.encode_ns_per_record"] = p.measure("wal.encode_ns_per_record", func(n int) {
		for i := 0; i < n; i++ {
			wal.EncodeRecords(recs)
		}
	}) / per

	f := repl.NewFollower(0, blockSize)
	base := uint64(1)
	p.result["repl.ingest_ns_per_record"] = p.measure("repl.ingest_ns_per_record", func(n int) {
		for i := 0; i < n; i++ {
			if f.Ingest(base, recs) {
				panic("benchmark: follower asked for a resync of an in-order batch")
			}
			base += uint64(len(recs))
		}
	}) / per
}

// clientFloor times one library client against a one-server system with
// nothing else running: the uncontended cost of the calls the workloads make
// most, goroutine hand-off to the server included.
func (p *prober) clientFloor(pt operatingPoint) {
	sys, err := core.New(core.Config{Cores: 1, Servers: 1, Timeshare: true,
		Techniques: core.AllTechniques(), Placement: sched.PolicyRoundRobin})
	if err != nil {
		panic("benchmark: building the one-server system: " + err.Error())
	}
	sys.Start()
	defer sys.Stop()
	cli := sys.NewClient(0)
	must := func(err error) {
		if err != nil {
			panic("benchmark: client floor: " + err.Error())
		}
	}
	must(cli.Mkdir("/floor", fsapi.MkdirOpt{Distributed: true}))
	resident := "/floor/" + pt.name
	fd, err := cli.Open(resident, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
	must(err)
	must(cli.Close(fd))
	p.measure("client.stat_floor_ns", func(n int) {
		for i := 0; i < n; i++ {
			_, err := cli.Stat(resident)
			must(err)
		}
	})
	churned := resident + "-churn"
	p.measure("client.create_unlink_floor_ns", func(n int) {
		for i := 0; i < n; i++ {
			fd, err := cli.Open(churned, fsapi.OCreate|fsapi.OWrOnly, fsapi.Mode644)
			must(err)
			must(cli.Close(fd))
			must(cli.Unlink(churned))
		}
	})
}
