package proto

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/fsapi"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Op:          OpCreateCoalesced,
		Dir:         InodeID{Server: 2, Local: 99},
		Name:        "file.txt",
		Target:      InodeID{Server: 1, Local: 5},
		Ftype:       fsapi.TypeRegular,
		Mode:        fsapi.Mode644,
		Flags:       3,
		Size:        4096,
		Offset:      128,
		Whence:      1,
		Count:       512,
		Fd:          FdID(12),
		Data:        []byte("payload bytes"),
		Distributed: true,
		Exclusive:   true,
		Replace:     false,
		WantOpen:    true,
		Dirty:       true,
		Program:     "prog-1",
		Args:        []string{"a", "b c", ""},
		Env:         []string{"K=V"},
		Dirname:     "/work/dir",
		Fds: []FdSpec{
			{Fd: 0, Ino: InodeID{Server: 0, Local: 3}, SrvFd: 4, Flags: 2, Offset: 10, Local: true},
			{Fd: 5, Ino: InodeID{Server: 3, Local: 8}, Pipe: true, Write: true},
		},
		PID:    1234,
		Sig:    9,
		Policy: 1,
	}
	got := &Request{}
	err := UnmarshalRequestInto(got, req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, req)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		Err:     fsapi.EEXIST,
		Ino:     InodeID{Server: 3, Local: 77},
		Server:  3,
		Ftype:   fsapi.TypeDir,
		Size:    8192,
		Offset:  64,
		N:       5,
		Fd:      FdID(9),
		Extents: []Extent{{Start: 1, Count: 3}, {Start: 500, Count: 1}},
		Version: 42,
		Data:    []byte{0, 1, 2, 255},
		Stat: StatWire{
			Ino:   InodeID{Server: 3, Local: 77},
			Ftype: fsapi.TypeDir,
			Size:  8192,
			Nlink: 2,
			Mode:  fsapi.Mode755,
		},
		Ents: []DirEntWire{
			{Name: "a", Ino: InodeID{Server: 0, Local: 2}, Ftype: fsapi.TypeRegular},
			{Name: "sub dir", Ino: InodeID{Server: 1, Local: 3}, Ftype: fsapi.TypeDir},
		},
		Dist:       true,
		Refs:       4,
		ExitStatus: 2,
		PID:        55,
	}
	got := &Response{}
	err := UnmarshalResponseInto(got, resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, resp)
	}
}

func TestEmptyRequestRoundTrip(t *testing.T) {
	req := &Request{Op: OpPing}
	got := &Request{}
	err := UnmarshalRequestInto(got, req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != OpPing || got.Name != "" || got.Data != nil || got.Fds != nil {
		t.Fatalf("unexpected decode %+v", got)
	}
}

func TestInvalidationRoundTrip(t *testing.T) {
	iv := Invalidation{Dir: InodeID{Server: 1, Local: 42}, Name: "victim"}
	got, err := UnmarshalInvalidation(iv.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(iv, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, iv)
	}
}

func TestTruncatedPayloadsFail(t *testing.T) {
	req := &Request{Op: OpLookup, Dir: RootInode, Name: "some-name"}
	raw := req.Marshal()
	for _, cut := range []int{0, 1, 5, len(raw) / 2, len(raw) - 1} {
		if err := UnmarshalRequestInto(&Request{}, raw[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	resp := &Response{Data: []byte("abcdef"), Extents: []Extent{{Start: 1, Count: 2}}}
	rraw := resp.Marshal()
	if err := UnmarshalResponseInto(&Response{}, rraw[:len(rraw)/3]); err == nil {
		t.Error("truncated response not detected")
	}
}

// Property: request marshal/unmarshal round-trips for arbitrary string and
// byte payloads.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(name string, data []byte, size int64, dist bool) bool {
		req := &Request{Op: OpWriteAt, Name: name, Data: data, Size: size, Distributed: dist}
		got := &Request{}
		err := UnmarshalRequestInto(got, req.Marshal())
		if err != nil {
			return false
		}
		if got.Name != name || got.Size != size || got.Distributed != dist {
			return false
		}
		if len(got.Data) != len(data) {
			return false
		}
		for i := range data {
			if got.Data[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashStableAndSpread(t *testing.T) {
	dir := InodeID{Server: 0, Local: 1}
	if Hash(dir, "name") != Hash(dir, "name") {
		t.Fatal("hash not deterministic")
	}
	if Hash(dir, "name-a") == Hash(dir, "name-b") {
		t.Fatal("suspicious collision between distinct names")
	}
	// Different parent directories place the same name differently
	// (usually): verify the directory inode participates in the hash.
	other := InodeID{Server: 0, Local: 2}
	same := 0
	for i := 0; i < 64; i++ {
		n := string(rune('a' + i%26))
		if Hash(dir, n)%8 == Hash(other, n)%8 {
			same++
		}
	}
	if same == 64 {
		t.Fatal("hash ignores the directory inode")
	}
	// Spread: hashing many names over 8 servers should touch every server.
	buckets := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		buckets[Hash(dir, "file"+string(rune('0'+i%10))+string(rune('a'+i%26))+string(rune('A'+(i/26)%26)))%8]++
	}
	if len(buckets) < 8 {
		t.Fatalf("hash only hit %d of 8 buckets", len(buckets))
	}
}

func TestInodeIDHelpers(t *testing.T) {
	if !NilInode.IsNil() {
		t.Error("NilInode should be nil")
	}
	if RootInode.IsNil() {
		t.Error("RootInode should not be nil")
	}
	if NilInode.String() != "<nil-inode>" || RootInode.String() != "0:1" {
		t.Error("String formatting wrong")
	}
	if RootInode.Key() == NilInode.Key() {
		t.Error("Key collision between root and nil")
	}
}

func TestOpString(t *testing.T) {
	if OpLookup.String() != "LOOKUP" || OpRmdirPrepare.String() != "RMDIR_PREPARE" {
		t.Error("op names wrong")
	}
	if Op(9999).String() != "OP_UNKNOWN" {
		t.Error("unknown op name wrong")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpRmMap, Dir: RootInode, Name: "victim", Ftype: fsapi.TypeRegular},
		{Op: OpUnlinkInode, Target: InodeID{Server: 2, Local: 17}},
		{Op: OpSetSize, Target: InodeID{Server: 2, Local: 18}, Size: 4096},
	}
	env := &Request{Op: OpBatch, Subs: reqs, StopOnErr: true}
	decoded := &Request{}
	err := UnmarshalRequestInto(decoded, env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	subs, stop, err := UnmarshalBatch(decoded.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !stop {
		t.Fatal("stop-on-error flag lost")
	}
	if !reflect.DeepEqual(reqs, subs) {
		t.Fatalf("sub-request mismatch:\n got %+v\nwant %+v", subs, reqs)
	}

	resps := []*Response{
		{Ino: InodeID{Server: 2, Local: 17}, Ftype: fsapi.TypeRegular},
		{Err: fsapi.ECANCELED},
	}
	reply := &Response{}
	err = UnmarshalResponseInto(reply, (&Response{Subs: resps}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalBatchResponses(reply.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resps, back) {
		t.Fatalf("sub-response mismatch:\n got %+v\nwant %+v", back, resps)
	}
}

func TestBatchCapsEnforced(t *testing.T) {
	var reqs []*Request
	for i := 0; i < MaxBatchOps+1; i++ {
		reqs = append(reqs, &Request{Op: OpPing})
	}
	if _, _, err := UnmarshalBatch(MarshalBatch(reqs, false)); err == nil {
		t.Fatal("over-count batch should fail to decode")
	}
	big := &Request{Op: OpWriteAt, Data: make([]byte, MaxBatchBytes)}
	if _, _, err := UnmarshalBatch(MarshalBatch([]*Request{big}, false)); err == nil {
		t.Fatal("over-size batch should fail to decode")
	}
	if _, _, err := UnmarshalBatch(nil); err == nil {
		t.Fatal("empty batch payload should fail to decode")
	}
	raw := MarshalBatch([]*Request{{Op: OpPing}}, false)
	if _, _, err := UnmarshalBatch(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated batch should fail to decode")
	}
}
