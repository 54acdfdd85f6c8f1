package proto

import (
	"reflect"
	"testing"

	"repro/internal/fsapi"
)

func sampleShardMsg() *ShardMsg {
	return &ShardMsg{
		MapBlob: []byte{1, 2, 3, 4},
		Entries: []MigEntry{
			{Dir: InodeID{Server: 1, Local: 7}, Name: "a", Target: InodeID{Server: 2, Local: 9}, Ftype: fsapi.TypeRegular},
			{Dir: InodeID{Server: 1, Local: 7}, Name: "sub", Target: InodeID{Server: 0, Local: 3}, Ftype: fsapi.TypeDir, Dist: true},
		},
		Marked:   []InodeID{{Server: 1, Local: 7}},
		DeadDirs: []InodeID{{Server: 2, Local: 5}, {Server: 3, Local: 6}},
	}
}

// TestShardMsgHostileCount feeds counts no payload could hold. Each must be
// refused as a decoding error, not trusted as an allocation size.
func TestShardMsgHostileCount(t *testing.T) {
	for _, tc := range []struct {
		name   string
		counts []uint32 // after an empty map: entries, marked, dead dirs
	}{
		{"entries", []uint32{0xFFFFFFFF}},
		{"marked", []uint32{0, 0xFFFFFFFF}},
		{"dead dirs", []uint32{0, 0, 0xFFFFFFFF}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEncoder(16)
			e.blob(nil)
			for _, n := range tc.counts {
				e.u32(n)
			}
			if m, err := UnmarshalShardMsg(e.bytes()); err == nil {
				t.Fatalf("decoded a count of 0xFFFFFFFF from %d bytes: %+v", len(e.bytes()), m)
			}
		})
	}
}

func FuzzUnmarshalShardMsg(f *testing.F) {
	f.Add(sampleShardMsg().Marshal())
	f.Add((&ShardMsg{}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalShardMsg(data)
		if err != nil {
			return
		}
		wire := m.Marshal()
		again, err := UnmarshalShardMsg(wire)
		if err != nil {
			t.Fatalf("a decoded message does not decode after re-encoding: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}
