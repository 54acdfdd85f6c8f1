package wal

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/proto"
)

const imageBlockSize = 64

// TestImageForgetsBlocksThatLeave creates, writes and unlinks files, and
// writes and truncates one that stays: a block that leaves its inode — at
// reap or at a shrink — keeps no bytes in the image, and the image's
// checkpoint is what it was before the files came and went, apart from the
// inode numbers they used up.
func TestImageForgetsBlocksThatLeave(t *testing.T) {
	m := NewImage(imageBlockSize)
	dir := proto.InodeID{Server: 0, Local: 1}
	m.Apply(Record{Type: RecInode, Ino: 2, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Nlink: 1})
	m.Apply(Record{Type: RecAddMap, Dir: dir, Name: "keep", Target: proto.InodeID{Local: 2}, Ftype: fsapi.TypeRegular})
	before := m.Checkpoint().Marshal()

	const n = 8
	for i := uint64(0); i < n; i++ {
		ino, name := 3+i, fmt.Sprintf("f%d", i)
		blocks := []uint64{10 + 2*i, 11 + 2*i}
		m.Apply(Record{Type: RecInode, Ino: ino, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Nlink: 1})
		m.Apply(Record{Type: RecAddMap, Dir: dir, Name: name, Target: proto.InodeID{Local: ino}, Ftype: fsapi.TypeRegular})
		m.Apply(Record{Type: RecBlocks, Ino: ino, Blocks: blocks, Size: 2 * imageBlockSize})
		m.Apply(Record{Type: RecWrite, Ino: ino, Data: bytes.Repeat([]byte{byte(i + 1)}, 2*imageBlockSize)})
		m.Apply(Record{Type: RecRmMap, Dir: dir, Name: name})
		m.Apply(Record{Type: RecNlink, Ino: ino, Nlink: 0})
	}
	// The file that stays grows to two blocks, is written, and shrinks back
	// to none.
	m.Apply(Record{Type: RecBlocks, Ino: 2, Blocks: []uint64{100, 101}, Size: 2 * imageBlockSize})
	m.Apply(Record{Type: RecWrite, Ino: 2, Data: bytes.Repeat([]byte{9}, 2*imageBlockSize)})
	if len(m.chunks) != 2 {
		t.Fatalf("the image holds %d blocks' bytes after the writes, want 2", len(m.chunks))
	}
	m.Apply(Record{Type: RecBlocks, Ino: 2, Blocks: []uint64{100}, Size: imageBlockSize})
	if _, ok := m.chunks[101]; ok || len(m.chunks) != 1 {
		t.Fatalf("block 101 left the file but the image still holds %d blocks' bytes", len(m.chunks))
	}
	m.Apply(Record{Type: RecBlocks, Ino: 2, Blocks: nil, Size: 0})

	if len(m.chunks) != 0 {
		t.Fatalf("the image holds the bytes of %d blocks no inode owns", len(m.chunks))
	}
	after := m.Checkpoint()
	if after.NextIno != 3+n {
		t.Fatalf("next inode number %d, want %d", after.NextIno, 3+n)
	}
	after.NextIno = 3
	if !bytes.Equal(before, after.Marshal()) {
		t.Fatalf("the checkpoint changed after every block came and went:\n got %+v", after)
	}
}

// TestImageLoadRoundTrips loads a checkpoint and takes one back out: the
// same bytes, and nothing the image keeps aliases the loaded checkpoint.
func TestImageLoadRoundTrips(t *testing.T) {
	c := &Checkpoint{
		NextIno:  9,
		Epoch:    3,
		PlaceMap: []byte{1, 2, 3},
		Inodes: []InodeSnap{
			{Local: 2, Ftype: fsapi.TypeDir, Mode: fsapi.Mode755, Nlink: 1},
			{Local: 5, Ftype: fsapi.TypeRegular, Mode: fsapi.Mode644, Size: 70, Nlink: 1,
				Blocks: []uint64{4, 6}, Data: [][]byte{bytes.Repeat([]byte{7}, imageBlockSize), nil}},
		},
		Dirs: []DirSnap{{Dir: proto.InodeID{Local: 2}, Ents: []DirEntSnap{
			{Name: "a", Target: proto.InodeID{Local: 5}, Ftype: fsapi.TypeRegular},
			{Name: "b", Target: proto.InodeID{Server: 1, Local: 3}, Ftype: fsapi.TypeRegular},
		}}},
		DeadDirs: []proto.InodeID{{Local: 8}},
	}
	want := c.Marshal()
	m := NewImage(imageBlockSize)
	m.Load(c)
	c.PlaceMap[0], c.Inodes[1].Blocks[0], c.Inodes[1].Data[0][0] = 0, 0, 0
	if got := m.Checkpoint().Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("load then checkpoint gave\n %+v", m.Checkpoint())
	}
}

// TestImageNamesOutliveTheirRecords applies RecAddMap records decoded in
// place from a shipped buffer — new names, enough removals to compact the
// directory's slab, then more new names and a name applied twice — and
// scribbles over the buffer: the image's checkpoint still shows every name
// it stores as it was sent, as a replica's must at promotion.
func TestImageNamesOutliveTheirRecords(t *testing.T) {
	dir := proto.InodeID{Server: 0, Local: 1}
	name := func(i int) string { return fmt.Sprintf("m%06d-0123456789abcdef", i) }
	const n = 600
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, Record{Type: RecAddMap, Dir: dir, Name: name(i),
			Target: proto.InodeID{Local: uint64(2 + i)}, Ftype: fsapi.TypeRegular})
	}
	for i := 1; i < n; i++ {
		if i%50 != 0 {
			recs = append(recs, Record{Type: RecRmMap, Dir: dir, Name: name(i)})
		}
	}
	// After the compaction: names the slab has not seen, and a replayed
	// record naming an entry already stored.
	for i := n; i < n+50; i += 10 {
		recs = append(recs, Record{Type: RecAddMap, Dir: dir, Name: name(i),
			Target: proto.InodeID{Local: uint64(2 + i)}, Ftype: fsapi.TypeRegular})
	}
	recs = append(recs, recs[0])
	frames := EncodeRecords(recs)
	decoded, err := DecodeRecordsInto(nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	m := NewImage(imageBlockSize)
	for _, r := range decoded {
		m.Apply(r)
	}
	ReleaseRecords(decoded)
	for i := range frames {
		frames[i] = '#'
	}

	c := m.Checkpoint()
	if len(c.Dirs) != 1 {
		t.Fatalf("%d directories, want 1", len(c.Dirs))
	}
	var got []string
	for _, e := range c.Dirs[0].Ents {
		got = append(got, e.Name)
	}
	var want []string
	for i := 0; i < n; i += 50 {
		want = append(want, name(i))
	}
	for i := n; i < n+50; i += 10 {
		want = append(want, name(i))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the image stores\n%q\nwant\n%q", got, want)
	}
	sh := m.dirs[dir]
	if live := len(want) * len(name(0)); sh.names.Held() > 2*live+4096 {
		t.Fatalf("the directory's slab holds %d bytes for %d live", sh.names.Held(), live)
	}
}
