package wire_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/place"
	"repro/internal/proto"
	"repro/internal/repl"
	"repro/internal/wal"
)

// TestFormatsAreByteExact pins the bytes of one sample of every format that
// crosses a boundary: RPC messages, WAL frames and checkpoints, replication
// ships, placement maps. A round-trip test cannot see a change made to an
// encoder and its decoder together; this one can. Each sample is encoded and
// compared with its committed hex, and the committed hex is decoded and
// re-encoded, so a decoder that drops or misreads a field fails here too.
func TestFormatsAreByteExact(t *testing.T) {
	for _, f := range formats() {
		got := f.encode()
		if h := hex.EncodeToString(got); h != f.hex {
			t.Errorf("%s encodes as\n%s\nwant\n%s", f.name, h, f.hex)
			continue
		}
		again, err := f.reencode(got)
		if err != nil {
			t.Errorf("%s: decoding its committed bytes: %v", f.name, err)
		} else if !bytes.Equal(again, got) {
			t.Errorf("%s: decoded and encoded again gives\n%x\nwant\n%s", f.name, again, f.hex)
		}
	}
}

type format struct {
	name     string
	encode   func() []byte
	reencode func([]byte) ([]byte, error)
	hex      string
}

var (
	dir    = proto.InodeID{Server: 1, Local: 2}
	target = proto.InodeID{Server: 2, Local: 9}
)

func request(traced bool) *proto.Request {
	r := &proto.Request{Op: proto.OpCreateCoalesced, Epoch: 3,
		Dir: dir, Name: "file", Target: target, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644,
		Flags: 0x41, Size: 4096, Offset: -1, Whence: 2, Count: 5, Fd: 11, Data: []byte{0xde, 0xad},
		Exclusive: true, WantOpen: true, Program: "sh", Args: []string{"-c", "ls"}, Env: []string{"A=1"},
		Dirname: "/tmp", Fds: []proto.FdSpec{{Fd: 1, Ino: target, SrvFd: 3, Flags: 2, Offset: 10, Pipe: true, Write: true}},
		PID: 99, Sig: 9, Policy: 4}
	if traced {
		r.Trace, r.Span = 0x1122, 0x3344
	}
	return r
}

func response() *proto.Response {
	return &proto.Response{Err: fsapi.ENOENT, Ino: target, Server: 2, Ftype: fsapi.TypeDir, Size: 300,
		Offset: 12, N: -4, Fd: 6, Extents: []proto.Extent{{Start: 100, Count: 3}, {Start: 7, Count: 1}},
		Version: 5, Data: []byte("xyz"), Stat: proto.StatWire{Ino: dir, Ftype: fsapi.TypeRegular, Size: 77, Nlink: 2, Mode: fsapi.Mode755},
		Ents: []proto.DirEntWire{{Name: "a", Ino: target, Ftype: fsapi.TypeRegular}, {Name: "bc", Ino: dir, Ftype: fsapi.TypeDir}},
		Dist: true, Refs: 3, Epoch: 8, ExitStatus: -1, PID: 42}
}

func placeMap(p place.Policy) []byte { return place.New(p, []int32{0, 2, 5}, 7).Encode() }

func frame(r wal.Record) []byte { return wal.EncodeRecords([]wal.Record{r}) }

func checkpoint() *wal.Checkpoint {
	return &wal.Checkpoint{LSN: 30, NextIno: 12, Epoch: 7, PlaceMap: placeMap(place.PolicyRing),
		Inodes: []wal.InodeSnap{
			{Local: 2, Ftype: fsapi.TypeDir, Mode: fsapi.Mode755, Nlink: 2, Dist: true},
			{Local: 9, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Size: 700, Nlink: 1,
				Blocks: []uint64{4, 5}, Data: [][]byte{[]byte("hi"), nil}},
		},
		Dirs:     []wal.DirSnap{{Dir: dir, Ents: []wal.DirEntSnap{{Name: "f", Target: target, Ftype: fsapi.TypeRegular}}}},
		DeadDirs: []proto.InodeID{{Server: 0, Local: 6}},
		Marked:   []proto.InodeID{{Server: 0, Local: 11}},
	}
}

func requestRoundTrip(b []byte) ([]byte, error) {
	r := &proto.Request{}
	err := proto.UnmarshalRequestInto(r, b)
	if err != nil {
		return nil, err
	}
	return r.Marshal(), nil
}

func responseRoundTrip(b []byte) ([]byte, error) {
	r := &proto.Response{}
	err := proto.UnmarshalResponseInto(r, b)
	if err != nil {
		return nil, err
	}
	return r.Marshal(), nil
}

func framesRoundTrip(b []byte) ([]byte, error) {
	recs, err := wal.DecodeRecordsInto(nil, b)
	if err != nil {
		return nil, err
	}
	return wal.EncodeRecords(recs), nil
}

func formats() []format {
	frames := append(frame(wal.Record{LSN: 17, Type: wal.RecNlink, Ino: 9, Nlink: 0}),
		frame(wal.Record{LSN: 18, Type: wal.RecDirKill, Dir: dir})...)
	fs := []format{
		{name: "request", encode: request(false).Marshal, reencode: requestRoundTrip},
		{name: "traced request", encode: request(true).Marshal, reencode: requestRoundTrip},
		{name: "response", encode: response().Marshal, reencode: responseRoundTrip},
		{name: "invalidation",
			encode: func() []byte { return (&proto.Invalidation{Dir: dir, Name: "gone"}).AppendTo(nil) },
			reencode: func(b []byte) ([]byte, error) {
				iv, err := proto.UnmarshalInvalidation(b)
				return iv.AppendTo(nil), err
			}},
		{name: "batch envelope",
			encode: (&proto.Request{Op: proto.OpBatch, StopOnErr: true, Subs: []*proto.Request{
				{Op: proto.OpLookup, Dir: dir, Name: "a", Epoch: 3},
				{Op: proto.OpStat, Target: proto.PrevInode},
			}}).Marshal,
			reencode: func(b []byte) ([]byte, error) {
				env := &proto.Request{}
				err := proto.UnmarshalRequestInto(env, b)
				if err != nil {
					return nil, err
				}
				subs, stop, err := proto.UnmarshalBatch(env.Data)
				if err != nil {
					return nil, err
				}
				env.Data, env.Subs, env.StopOnErr = nil, subs, stop
				return env.Marshal(), nil
			}},
		{name: "batch reply",
			encode: (&proto.Response{Subs: []*proto.Response{
				{Ino: target, Server: 2, Ftype: fsapi.TypeRegular},
				{Err: fsapi.ECANCELED},
			}}).Marshal,
			reencode: func(b []byte) ([]byte, error) {
				r := &proto.Response{}
				err := proto.UnmarshalResponseInto(r, b)
				if err != nil {
					return nil, err
				}
				subs, err := proto.UnmarshalBatchResponses(r.Data)
				if err != nil {
					return nil, err
				}
				r.Data, r.Subs = nil, subs
				return r.Marshal(), nil
			}},
		{name: "shard message",
			encode: (&proto.ShardMsg{MapBlob: placeMap(place.PolicyModulo),
				Entries: []proto.MigEntry{{Dir: dir, Name: "m", Target: target, Ftype: fsapi.TypeDir, Dist: true}},
				Marked:  []proto.InodeID{dir}, DeadDirs: []proto.InodeID{{Server: 3, Local: 4}}}).Marshal,
			reencode: func(b []byte) ([]byte, error) {
				m, err := proto.UnmarshalShardMsg(b)
				if err != nil {
					return nil, err
				}
				return m.Marshal(), nil
			}},
	}
	for _, r := range []wal.Record{
		{LSN: 1, Type: wal.RecInode, Ino: 9, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Dist: true, Nlink: 1},
		{LSN: 2, Type: wal.RecNlink, Ino: 9, Nlink: 2},
		{LSN: 3, Type: wal.RecSize, Ino: 9, Size: 5000},
		{LSN: 4, Type: wal.RecBlocks, Ino: 9, Size: 8192, Blocks: []uint64{40, 41}},
		{LSN: 5, Type: wal.RecWrite, Ino: 9, Off: 64, Data: []byte("data")},
		{LSN: 6, Type: wal.RecAddMap, Dir: dir, Name: "f", Target: target, Ftype: fsapi.TypeDir, Dist: true},
		{LSN: 7, Type: wal.RecRmMap, Dir: dir, Name: "f"},
		{LSN: 8, Type: wal.RecDirKill, Dir: dir},
		{LSN: 9, Type: wal.RecEpoch, Epoch: 7, Data: placeMap(place.PolicyModulo)},
		{LSN: 10, Type: wal.RecDirMark, Dir: dir},
		{LSN: 11, Type: wal.RecDirUnmark, Dir: dir},
	} {
		fs = append(fs, format{name: r.Type.String() + " frame",
			encode: func() []byte { return frame(r) }, reencode: framesRoundTrip})
	}
	fs = append(fs, []format{
		{name: "checkpoint", encode: checkpoint().Marshal,
			reencode: func(b []byte) ([]byte, error) {
				c, err := wal.UnmarshalCheckpoint(b)
				if err != nil {
					return nil, err
				}
				return c.Marshal(), nil
			}},
		{name: "repl batch",
			encode: func() []byte { return (&repl.Msg{Primary: 2, Base: 17, Recs: frames}).AppendTo(nil) },
			reencode: func(b []byte) ([]byte, error) {
				var m repl.Msg
				err := repl.UnmarshalMsgInto(&m, b)
				return m.AppendTo(nil), err
			}},
		{name: "repl snapshot",
			encode: func() []byte {
				return (&repl.Msg{Primary: 2, SnapLSN: 30, Snap: checkpoint().Marshal()}).AppendTo(nil)
			},
			reencode: func(b []byte) ([]byte, error) {
				var m repl.Msg
				err := repl.UnmarshalMsgInto(&m, b)
				return m.AppendTo(nil), err
			}},
		{name: "repl ack",
			encode: func() []byte { return repl.Ack{Server: 1, Primary: 2, Durable: 40, NeedSync: true}.AppendTo(nil) },
			reencode: func(b []byte) ([]byte, error) {
				a, err := repl.UnmarshalAck(b)
				return a.AppendTo(nil), err
			}},
		{name: "repl seal reply",
			encode: func() []byte { return (&repl.SealReply{Durable: 40, Snap: []byte("snap")}).AppendTo(nil) },
			reencode: func(b []byte) ([]byte, error) {
				var r repl.SealReply
				err := repl.UnmarshalSealReplyInto(&r, b)
				return r.AppendTo(nil), err
			}},
	}...)
	for _, p := range []place.Policy{place.PolicyModulo, place.PolicyRing} {
		fs = append(fs, format{name: p.String() + " map",
			encode: func() []byte { return placeMap(p) },
			reencode: func(b []byte) ([]byte, error) {
				m, err := place.Decode(b)
				if err != nil {
					return nil, err
				}
				return m.Encode(), nil
			}})
	}
	for i := range fs {
		fs[i].hex = golden[fs[i].name]
	}
	return fs
}

// golden is each sample's committed encoding.
var golden = map[string]string{
	"request":          "11000100000002000000000000000400000066696c6502000000090000000000000001a401410000000010000000000000ffffffffffffffff02000000050000000b0000000000000002000000dead000100010002000000736802000000020000002d63020000006c730100000003000000413d31040000002f746d7001000000010000000200000009000000000000000300000000000000020000000a00000000000000000101630000000000000009000000040000000300000000000000",
	"traced request":   "11000100000002000000000000000400000066696c6502000000090000000000000001a401410000000010000000000000ffffffffffffffff02000000050000000b0000000000000002000000dead000100010002000000736802000000020000002d63020000006c730100000003000000413d31040000002f746d7001000000010000000200000009000000000000000300000000000000020000000a0000000000000000010163000000000000000900000004000000030000000000000022110000000000004433000000000000",
	"response":         "0200000002000000090000000000000002000000022c010000000000000c00000000000000fcffffffffffffff060000000000000002000000640000000000000003000000000000000700000000000000010000000000000005000000000000000300000078797a010000000200000000000000014d0000000000000002000000ed0102000000010000006102000000090000000000000001020000006263010000000200000000000000020103000000ffffffff2a000000000000000800000000000000",
	"invalidation":     "01000000020000000000000004000000676f6e65",
	"batch envelope":   "2800000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000201000001020000007b0000000100010000000200000000000000010000006100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003000000000000007a0000000e0000000000000000000000000000000000feffffff0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"batch reply":      "000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000006010000020000007d00000000000000020000000900000000000000020000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000007d00000017000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"shard message":    "1d000000070000000000000000400000000300000000000000020000000500000001000000010000000200000000000000010000006d02000000090000000000000002010100000001000000020000000000000001000000030000000400000000000000",
	"INODE frame":      "190000008f315727010000000000000001090000000000000001a4010101000000",
	"NLINK frame":      "15000000a7833cf2020000000000000002090000000000000002000000",
	"SIZE frame":       "19000000baf52b8403000000000000000309000000000000008813000000000000",
	"BLOCKS frame":     "2d0000003ab2fa5a040000000000000004090000000000000000200000000000000200000028000000000000002900000000000000",
	"WRITE frame":      "21000000a1bed9bc050000000000000005090000000000000040000000000000000400000064617461",
	"ADD_MAP frame":    "28000000f73949c906000000000000000601000000020000000000000001000000660200000009000000000000000201",
	"RM_MAP frame":     "1a000000a55c4ae80700000000000000070100000002000000000000000100000066",
	"DIR_KILL frame":   "15000000825475e7080000000000000008010000000200000000000000",
	"EPOCH frame":      "320000005e4df4ff09000000000000000907000000000000001d0000000700000000000000004000000003000000000000000200000005000000",
	"DIR_UNMARK frame": "15000000afbaa1210b000000000000000b010000000200000000000000",
	"DIR_MARK frame":   "15000000b4e0ed630a000000000000000a010000000200000000000000",
	"checkpoint":       "112735081e000000000000000c0000000000000007000000000000001d000000070000000000000001400000000300000000000000020000000500000002000000020000000000000002ed01000000000000000002000000010000000000000000090000000000000001a401bc020000000000000100000000020000000400000000000000050000000000000002000000020000006869000000000100000001000000020000000000000001000000010000006602000000090000000000000001000100000000000000060000000000000001000000000000000b00000000000000",
	"repl batch":       "0200000011000000000000003a0000001500000023dbcf6811000000000000000209000000000000000000000015000000654ea76d120000000000000008010000000200000000000000000000000000000000000000",
	"repl snapshot":    "020000000000000000000000000000001e00000000000000e2000000112735081e000000000000000c0000000000000007000000000000001d000000070000000000000001400000000300000000000000020000000500000002000000020000000000000002ed01000000000000000002000000010000000000000000090000000000000001a401bc020000000000000100000000020000000400000000000000050000000000000002000000020000006869000000000100000001000000020000000000000001000000010000006602000000090000000000000001000100000000000000060000000000000001000000000000000b00000000000000",
	"repl ack":         "0100000002000000280000000000000001",
	"repl seal reply":  "280000000000000004000000736e6170",
	"modulo map":       "0700000000000000004000000003000000000000000200000005000000",
	"ring map":         "0700000000000000014000000003000000000000000200000005000000",
}
