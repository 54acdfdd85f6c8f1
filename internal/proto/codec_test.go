package proto

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/ncc"
	"repro/internal/wire"
)

// allOps lists every operation with a name, in numeric order.
func allOps() []Op {
	var ops []Op
	for op := OpInvalid + 1; op < NumOps; op++ {
		if op.Info().Name != "" {
			ops = append(ops, op)
		}
	}
	return ops
}

// sampleRequest is a representative request for op: the fields the op's
// senders fill, with sizes that vary with the op so that the table covers
// short and long names, empty and block-sized payloads, traced and untraced.
func sampleRequest(op Op) *Request {
	n := int(op)
	r := &Request{
		Op: op, Epoch: uint64(n % 3),
		Dir:    InodeID{Server: int32(n % 4), Local: uint64(100 + n)},
		Name:   strings.Repeat("n", 1+n*5%fsapi.NameMax),
		Target: InodeID{Server: int32(n % 5), Local: uint64(200 + n)},
		Ftype:  fsapi.TypeRegular, Mode: fsapi.Mode644, Flags: int32(n), Size: int64(n) << 10,
		Offset: int64(n) << 4, Whence: int32(n % 3), Count: int32(n), Fd: FdID(n),
		Distributed: n%2 == 0, Exclusive: n%3 == 0, Replace: n%5 == 0, WantOpen: n%7 == 0, Dirty: n%4 == 1,
	}
	switch op {
	case OpWriteAt, OpFdWrite, OpPipeWrite, OpShardCommit:
		r.Data = bytes.Repeat([]byte{byte(n)}, 4096)
	case OpExec:
		r.Program, r.Dirname = "prog-17", "/work/dir"
		r.Args, r.Env = []string{"make", "-j", ""}, []string{"A=1"}
		r.Fds = []FdSpec{{Fd: 0, Local: true}, {Fd: 3, Ino: r.Target, SrvFd: 9, Flags: 2, Offset: 77, Pipe: true, Write: true}}
		r.PID, r.Sig, r.Policy = 4242, 9, 3
	}
	if n%2 == 1 {
		r.Trace, r.Span = uint64(1000+n), uint64(2000+n)
	}
	return r
}

// sampleResponse is a representative reply to op.
func sampleResponse(op Op) *Response {
	n := int(op)
	r := &Response{
		Err: fsapi.Errno(n % 3), Ino: InodeID{Server: int32(n % 4), Local: uint64(300 + n)},
		Server: int32(n % 4), Ftype: fsapi.TypeRegular, Size: int64(n) << 12, Offset: int64(n), N: int64(n),
		Fd: FdID(n), Version: uint64(n) << 32, Dist: n%2 == 0, Refs: int32(n % 3), Epoch: uint64(n),
		Stat: StatWire{Ino: InodeID{Server: 1, Local: uint64(n)}, Ftype: fsapi.TypeRegular, Size: 4096, Nlink: 1, Mode: fsapi.Mode644},
	}
	switch op {
	case OpOpenInode, OpGetBlocks, OpExtend, OpTruncate:
		for i := 0; i < 1+n%5; i++ {
			r.Extents = append(r.Extents, Extent{Start: ncc.BlockID(1000 * i), Count: uint64(1 + i)})
		}
	case OpReadAt, OpFdRead, OpPipeRead, OpShardPull:
		r.Data = bytes.Repeat([]byte{byte(n)}, 4096)
	case OpReadDirShard:
		for i := 0; i < 70; i++ {
			r.Ents = append(r.Ents, DirEntWire{Name: strings.Repeat("e", i), Ino: InodeID{Server: 2, Local: uint64(i)}, Ftype: fsapi.TypeDir})
		}
	case OpExec:
		r.ExitStatus, r.PID = 3, 4242
	}
	return r
}

// sampleBatches is the table of batches the golden test and the fuzz seeds
// share: 1, 2 and MaxBatchOps sub-ops, empty and 4 KiB Data, traced and
// untraced sub-requests.
func sampleBatches() (reqs [][]*Request, resps [][]*Response) {
	ops := allOps()
	for _, n := range []int{1, 2, MaxBatchOps} {
		for _, first := range []Op{OpRmMap, OpWriteAt, OpStat} {
			var rs []*Request
			var ps []*Response
			for i := 0; i < n; i++ {
				op := first
				if i > 0 {
					op = ops[(int(first)+3*i)%len(ops)]
				}
				rs = append(rs, sampleRequest(op))
				ps = append(ps, sampleResponse(op))
			}
			reqs, resps = append(reqs, rs), append(resps, ps)
		}
	}
	return reqs, resps
}

func TestSizeHintCoversWireSize(t *testing.T) {
	check := func(what string, wire, hint int) {
		t.Helper()
		if wire > hint {
			t.Errorf("%s: %d bytes on the wire, SizeHint %d: a pooled buffer of the hinted class is outgrown", what, wire, hint)
		}
	}
	check("empty request", len(new(Request).AppendTo(nil)), new(Request).SizeHint())
	check("empty response", len(new(Response).AppendTo(nil)), new(Response).SizeHint())
	check("empty invalidation", len(new(Invalidation).AppendTo(nil)), new(Invalidation).SizeHint())
	for _, op := range allOps() {
		req, resp := sampleRequest(op), sampleResponse(op)
		check("request "+op.String(), len(req.AppendTo(nil)), req.SizeHint())
		check("response "+op.String(), len(resp.AppendTo(nil)), resp.SizeHint())
		iv := Invalidation{Dir: req.Dir, Name: req.Name}
		check("invalidation "+op.String(), len(iv.AppendTo(nil)), iv.SizeHint())
	}
	breqs, bresps := sampleBatches()
	for i := range breqs {
		env := &Request{Op: OpBatch, Subs: breqs[i], StopOnErr: true, Trace: 5, Span: 6}
		check(fmt.Sprintf("batch envelope %d", i), len(env.AppendTo(nil)), env.SizeHint())
		reply := &Response{Subs: bresps[i]}
		check(fmt.Sprintf("batch reply %d", i), len(reply.AppendTo(nil)), reply.SizeHint())
	}
}

// The batch encoders this PR replaced, kept as the reference: every
// sub-message marshaled apart and copied in behind its length.

func refMarshalBatch(reqs []*Request, stopOnErr bool) []byte {
	b := make([]byte, 0, 8+96*len(reqs))
	var flags uint8
	if stopOnErr {
		flags |= batchFlagStopOnErr
	}
	b = wire.AppendU8(b, flags)
	b = wire.AppendU32(b, uint32(len(reqs)))
	for _, r := range reqs {
		b = wire.AppendBlob(b, r.Marshal())
	}
	return b
}

func refMarshalBatchResponses(resps []*Response) []byte {
	b := make([]byte, 0, 8+96*len(resps))
	b = wire.AppendU32(b, uint32(len(resps)))
	for _, r := range resps {
		b = wire.AppendBlob(b, r.Marshal())
	}
	return b
}

// TestBatchEncodedInPlaceIsByteIdentical: the wire format did not change.
func TestBatchEncodedInPlaceIsByteIdentical(t *testing.T) {
	breqs, bresps := sampleBatches()
	prefix := []byte("already in the buffer")
	for i, subs := range breqs {
		for _, stop := range []bool{false, true} {
			ref := refMarshalBatch(subs, stop)
			if got := MarshalBatch(subs, stop); !bytes.Equal(got, ref) {
				t.Fatalf("batch %d stop=%v: MarshalBatch differs from the reference encoding", i, stop)
			}
			for _, trace := range []uint64{0, 99} {
				inPlace := &Request{Op: OpBatch, Subs: subs, StopOnErr: stop, Trace: trace, Span: trace}
				copied := &Request{Op: OpBatch, Data: ref, Trace: trace, Span: trace}
				want := copied.AppendTo(nil)
				if got := inPlace.AppendTo(nil); !bytes.Equal(got, want) {
					t.Fatalf("batch %d stop=%v trace=%d: envelope encoded in place differs from the one that copies its payload", i, stop, trace)
				}
				// The length words are patched at absolute positions.
				if got := inPlace.AppendTo(bytes.Clone(prefix)); !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
					t.Fatalf("batch %d: envelope appended behind a prefix differs", i)
				}
			}
		}
	}
	for i, subs := range bresps {
		ref := refMarshalBatchResponses(subs)
		if got := MarshalBatchResponses(subs); !bytes.Equal(got, ref) {
			t.Fatalf("batch %d: MarshalBatchResponses differs from the reference encoding", i)
		}
		want := (&Response{Data: ref, Epoch: 3}).AppendTo(nil)
		if got := (&Response{Subs: subs, Epoch: 3}).AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("batch %d: reply encoded in place differs from the one that copies its payload", i)
		}
		if got := (&Response{Subs: subs, Epoch: 3}).AppendTo(bytes.Clone(prefix)); !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("batch %d: reply appended behind a prefix differs", i)
		}
	}
}

// TestBatchDecodesIntoRecycledStructs: the path the server and the client
// take — envelope decoded into a recycled struct, sub-messages decoded from
// views of its payload into recycled structs — returns what was sent, at
// every batch size in turn through the same structs.
func TestBatchDecodesIntoRecycledStructs(t *testing.T) {
	breqs, bresps := sampleBatches()
	var env Request
	var subs []Request
	var reply Response
	pool := make([]*Response, MaxBatchOps+1)
	for i := range pool {
		pool[i] = new(Response)
	}
	for round := 0; round < 2; round++ { // the second round finds every struct dirty
		for i := range breqs {
			wire := (&Request{Op: OpBatch, Subs: breqs[i], StopOnErr: i%2 == 0}).AppendTo(nil)
			if err := UnmarshalRequestInto(&env, wire); err != nil {
				t.Fatal(err)
			}
			var stop bool
			var err error
			if subs, stop, err = UnmarshalBatchInto(subs, env.Data); err != nil {
				t.Fatal(err)
			}
			if stop != (i%2 == 0) || len(subs) != len(breqs[i]) {
				t.Fatalf("batch %d: stop=%v, %d sub-requests", i, stop, len(subs))
			}
			for j := range subs {
				if got, want := normRequest(subs[j]), normRequest(*breqs[i][j]); !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d sub-request %d:\n got %+v\nwant %+v", i, j, got, want)
				}
			}
			env.Recycle()

			wire = (&Response{Subs: bresps[i]}).AppendTo(nil)
			if err := UnmarshalResponseInto(&reply, wire); err != nil {
				t.Fatal(err)
			}
			got := pool[:len(bresps[i])]
			if err := UnmarshalBatchResponsesInto(got, reply.Data); err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if got, want := normResponse(*got[j]), normResponse(*bresps[i][j]); !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d sub-response %d:\n got %+v\nwant %+v", i, j, got, want)
				}
				got[j].Recycle()
			}
			if err := UnmarshalBatchResponsesInto(pool[:len(got)+1], reply.Data); err == nil {
				t.Fatalf("batch %d: a reply with %d sub-responses decoded into %d", i, len(got), len(got)+1)
			}
			reply.Recycle()
		}
	}
}

func TestRecycleBoundsWhatAStructKeeps(t *testing.T) {
	small := &Response{Data: make([]byte, recycleKeepBytes), Extents: make([]Extent, recycleKeepItems), Ents: make([]DirEntWire, recycleKeepEnts), Subs: []*Response{{}}}
	small.Ents[0].Name = "pinned"
	small.Recycle()
	if small.Data == nil || small.Extents == nil || small.Ents == nil || small.Subs != nil || small.Ents[0].Name != "" {
		t.Fatalf("Recycle dropped a slice within the bounds, or kept what it must not: %+v", small)
	}
	big := &Response{Data: make([]byte, recycleKeepBytes+1), Extents: make([]Extent, recycleKeepItems+1), Ents: make([]DirEntWire, recycleKeepEnts+1)}
	big.Recycle()
	if big.Data != nil || big.Extents != nil || big.Ents != nil {
		t.Fatalf("Recycle kept a slice beyond the bounds: %d/%d/%d", cap(big.Data), cap(big.Extents), cap(big.Ents))
	}
	req := &Request{Data: make([]byte, recycleKeepBytes+1), Fds: make([]FdSpec, 1), Args: []string{"a"}, Env: []string{"b"}, Subs: []*Request{{}}}
	req.Recycle()
	if req.Data != nil || req.Fds != nil || req.Args != nil || req.Env != nil || req.Subs != nil {
		t.Fatalf("Recycle kept %+v", req)
	}
}

// normRequest and normResponse return m with empty slices made nil: decoding
// into a recycled struct gives a zero-length slice where a fresh one gives
// nil, and nothing tells them apart on the wire.
func normRequest(r Request) Request {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	return r
}

func normResponse(r Response) Response {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	if len(r.Extents) == 0 {
		r.Extents = nil
	}
	if len(r.Ents) == 0 {
		r.Ents = nil
	}
	return r
}

// dirtyRequest and dirtyResponse are recycled destinations that still hold
// all of a previous message; a decode must show none of it.
func dirtyRequest() *Request {
	r := sampleRequest(OpExec)
	r.Data = bytes.Repeat([]byte{0xAA}, 600)
	r.Subs, r.StopOnErr = []*Request{{Op: OpPing}}, true
	return r
}

func dirtyResponse() *Response {
	r := sampleResponse(OpReadDirShard)
	r.Data = bytes.Repeat([]byte{0xAA}, 600)
	r.Extents = []Extent{{Start: 1, Count: 2}, {Start: 3, Count: 4}, {Start: 5, Count: 6}}
	r.ExitStatus, r.PID = 7, 8
	r.Subs = []*Response{{Err: fsapi.EIO}}
	return r
}

// scribble overwrites a payload a decoder has returned from, as the pool's
// next user would.
func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xFF
	}
}

func sameError(t *testing.T, fresh, dirty error) {
	t.Helper()
	if (fresh == nil) != (dirty == nil) || (fresh != nil && fresh.Error() != dirty.Error()) {
		t.Fatalf("decoding into a fresh struct: %v; into a recycled one: %v", fresh, dirty)
	}
}

func FuzzUnmarshalRequestInto(f *testing.F) {
	for _, op := range allOps() {
		f.Add(sampleRequest(op).AppendTo(nil))
	}
	// Numbers no op has: 0, and the two that REPL_APPEND and REPL_SEAL had
	// before ships and seals became repl frames.
	for _, op := range []Op{OpInvalid, NumOps, NumOps + 1} {
		f.Add(sampleRequest(op).AppendTo(nil))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := bytes.Clone(data), bytes.Clone(data)
		fresh, dirty := new(Request), dirtyRequest()
		errF, errD := UnmarshalRequestInto(fresh, a), UnmarshalRequestInto(dirty, b)
		sameError(t, errF, errD)
		if errF != nil {
			return
		}
		wire := fresh.AppendTo(nil)
		scribble(a)
		scribble(b)
		if got, want := normRequest(*dirty), normRequest(*fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("recycled destination:\n got %+v\nwant %+v", got, want)
		}
		if !bytes.Equal(fresh.AppendTo(nil), wire) || !bytes.Equal(dirty.AppendTo(nil), wire) {
			t.Fatal("a decoded request changed with the bytes it was decoded from")
		}
	})
}

func FuzzUnmarshalResponseInto(f *testing.F) {
	for _, op := range allOps() {
		f.Add(sampleResponse(op).AppendTo(nil))
	}
	// Numbers no op has: 0, and the two that REPL_APPEND and REPL_SEAL had
	// before ships and seals became repl frames.
	for _, op := range []Op{OpInvalid, NumOps, NumOps + 1} {
		f.Add(sampleResponse(op).AppendTo(nil))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := bytes.Clone(data), bytes.Clone(data)
		fresh, dirty := new(Response), dirtyResponse()
		errF, errD := UnmarshalResponseInto(fresh, a), UnmarshalResponseInto(dirty, b)
		sameError(t, errF, errD)
		if errF != nil {
			return
		}
		wire := fresh.AppendTo(nil)
		scribble(a)
		scribble(b)
		if got, want := normResponse(*dirty), normResponse(*fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("recycled destination:\n got %+v\nwant %+v", got, want)
		}
		if !bytes.Equal(fresh.AppendTo(nil), wire) || !bytes.Equal(dirty.AppendTo(nil), wire) {
			t.Fatal("a decoded response changed with the bytes it was decoded from")
		}
	})
}

func FuzzUnmarshalBatchInto(f *testing.F) {
	breqs, _ := sampleBatches()
	for i, subs := range breqs {
		f.Add(MarshalBatch(subs, i%2 == 0))
	}
	for raw := MarshalBatch(breqs[3], true); len(raw) > 0; raw = raw[:len(raw)-1] {
		f.Add(bytes.Clone(raw)) // every truncation of one batch
	}
	f.Add([]byte{})
	// Chains on the reserved target, well-formed and not (after the seeds
	// above, whose numbers are their names).
	root := InodeID{Server: 0, Local: 1}
	f.Add(MarshalBatch([]*Request{{Op: OpLookup, Dir: root, Name: "f", Epoch: 3}, {Op: OpStat, Target: PrevInode}}, true))
	f.Add(MarshalBatch([]*Request{{Op: OpUnlinkInode, Target: PrevInode}, {Op: OpRmMap, Dir: PrevInode, Name: "f", Target: PrevInode}}, false))
	// The envelopes a client's pending clean close leads: a bare request
	// wrapped, and a chain with one more member in front.
	held := InodeID{Server: 0, Local: 9}
	f.Add(MarshalBatch([]*Request{{Op: OpCloseInode, Target: held}, {Op: OpOpenInode, Target: held}}, false))
	f.Add(MarshalBatch([]*Request{{Op: OpCloseInode, Target: held}, {Op: OpCreateCoalesced, Dir: root, Name: "f", WantOpen: true}, {Op: OpExtend, Target: PrevInode, Size: 1}}, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := bytes.Clone(data), bytes.Clone(data)
		recycled := make([]Request, 3, MaxBatchOps)
		for i := range recycled[:cap(recycled)] {
			recycled[:cap(recycled)][i] = *dirtyRequest()
		}
		lentFrom := bytes.Clone(data)
		fresh, stopF, errF := UnmarshalBatchInto(nil, a)
		dirty, stopD, errD := UnmarshalBatchInto(recycled, b)
		lent, stopL, errL := UnmarshalBatchLent(nil, lentFrom)
		sameError(t, errF, errD)
		sameError(t, errF, errL)
		if errF != nil {
			return
		}
		if stopF != stopD || len(fresh) != len(dirty) || stopF != stopL || len(fresh) != len(lent) {
			t.Fatalf("fresh: stop=%v, %d sub-requests; recycled: stop=%v, %d; lent: stop=%v, %d",
				stopF, len(fresh), stopD, len(dirty), stopL, len(lent))
		}
		var wires [][]byte
		for i := range fresh {
			wires = append(wires, fresh[i].AppendTo(nil))
			// Lent strings read what a copy would, while the bytes stand.
			if !reflect.DeepEqual(lent[i], fresh[i]) {
				t.Fatalf("sub-request %d decoded with lent strings:\n got %+v\nwant %+v", i, lent[i], fresh[i])
			}
		}
		scribble(a)
		scribble(b)
		for i := range fresh {
			if got, want := normRequest(dirty[i]), normRequest(fresh[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("sub-request %d in a recycled destination:\n got %+v\nwant %+v", i, got, want)
			}
			if !bytes.Equal(fresh[i].AppendTo(nil), wires[i]) || !bytes.Equal(dirty[i].AppendTo(nil), wires[i]) {
				t.Fatalf("decoded sub-request %d changed with the bytes it was decoded from", i)
			}
		}
	})
}

// TestCodecSteadyStateAllocs: with a buffer of the hinted capacity and
// recycled destinations, the codec allocates only the strings it must copy —
// nothing for an envelope, its payload, a block map or a batch.
func TestCodecSteadyStateAllocs(t *testing.T) {
	subs := []*Request{
		{Op: OpStat, Target: InodeID{Server: 1, Local: 2}},
		{Op: OpWriteAt, Target: InodeID{Server: 1, Local: 2}, Data: make([]byte, 300), Trace: 3, Span: 4},
	}
	env := &Request{Op: OpBatch, Subs: subs, StopOnErr: true}
	reply := &Response{Subs: []*Response{sampleResponse(OpOpenInode), {Data: make([]byte, 300), N: 300}}}
	buf := make([]byte, 0, max(env.SizeHint(), reply.SizeHint()))
	var gotEnv Request
	var gotSubs []Request
	var gotReply Response
	gotResps := []*Response{{}, {}}
	roundTrip := func() {
		wire := env.AppendTo(buf[:0])
		if len(wire) > cap(buf) {
			t.Fatal("the envelope outgrew a buffer of the hinted capacity")
		}
		err := UnmarshalRequestInto(&gotEnv, wire)
		if err == nil {
			gotSubs, _, err = UnmarshalBatchInto(gotSubs, gotEnv.Data)
		}
		if err != nil || len(gotSubs) != 2 || len(gotSubs[1].Data) != 300 {
			t.Fatalf("request side: %v, %d sub-requests", err, len(gotSubs))
		}
		gotEnv.Recycle()
		wire = reply.AppendTo(buf[:0])
		if err = UnmarshalResponseInto(&gotReply, wire); err == nil {
			err = UnmarshalBatchResponsesInto(gotResps, gotReply.Data)
		}
		if err != nil || len(gotResps[0].Extents) == 0 || len(gotResps[1].Data) != 300 {
			t.Fatalf("reply side: %v", err)
		}
		gotReply.Recycle()
		for _, r := range gotResps {
			r.Recycle()
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("a batch round trip through recycled structs allocates %v times, want 0", allocs)
	}
}

// TestListingDecodesIntoOneString: a directory listing's names are copied
// into one string the entries share, so decoding one into a recycled
// response allocates once, whatever its length, and an empty one not at all.
func TestListingDecodesIntoOneString(t *testing.T) {
	listing := &Response{}
	for i := 0; i < 96; i++ {
		listing.Ents = append(listing.Ents, DirEntWire{Name: fmt.Sprintf("f%06d-%x", i, i*i), Ino: InodeID{Server: 1, Local: uint64(i)}, Ftype: fsapi.TypeRegular})
	}
	for _, c := range []struct {
		what   string
		wire   []byte
		allocs float64
	}{{"96 entries", listing.AppendTo(nil), 1}, {"no entries", new(Response).AppendTo(nil), 0}} {
		var got Response
		decode := func() {
			got.Recycle()
			if err := UnmarshalResponseInto(&got, c.wire); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if allocs := testing.AllocsPerRun(100, decode); allocs != c.allocs {
			t.Errorf("%s: decoding allocates %v times, want %v", c.what, allocs, c.allocs)
		}
		scribble(c.wire)
		if len(got.Ents) > 0 && !reflect.DeepEqual(got.Ents, listing.Ents) {
			t.Fatalf("%s: decoded %+v, want %+v", c.what, got.Ents, listing.Ents)
		}
	}
}
