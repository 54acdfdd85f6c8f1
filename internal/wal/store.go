package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the durable medium behind one server's log: a set of numbered
// log segments plus at most one checkpoint. The simulator uses MemStore;
// real deployments (cmd/hare-bench with a log directory) use FileStore.
//
// Stores only move bytes; framing, CRCs, and record semantics live in the
// Log. Append and Sync on a segment must be crash-atomic at frame
// granularity in the file case, which the frame CRC enforces on the read
// side rather than the store on the write side.
type Store interface {
	// Segments lists existing segment indices in ascending order.
	Segments() ([]uint64, error)
	// Append appends bytes to the given segment, creating it if needed. It
	// must not retain b: the log reuses the buffer for its next append.
	Append(seg uint64, b []byte) error
	// Read returns the full contents of a segment.
	Read(seg uint64) ([]byte, error)
	// Remove deletes a segment.
	Remove(seg uint64) error
	// Sync makes previous Appends durable (a flush barrier).
	Sync() error
	// SaveCheckpoint atomically replaces the checkpoint.
	SaveCheckpoint(b []byte) error
	// LoadCheckpoint returns the checkpoint bytes, or nil when none exists.
	LoadCheckpoint() ([]byte, error)
}

// MemStore is an in-memory Store used by the simulator and by tests. It is
// "durable" with respect to simulated server crashes: the store object lives
// outside the server whose crash is being injected, the same way DRAM does.
//
// A segment is a list of fixed-size chunks, filled in order: an append never
// copies the bytes already stored, and a segment holds at most one chunk's
// tail it does not use.
type MemStore struct {
	mu    sync.Mutex
	segs  map[uint64]*memSegment
	ckpt  []byte
	syncs int
}

// memChunk is the size of a MemStore segment's chunks.
const memChunk = 64 << 10

// memSegment is one MemStore segment: full chunks, then the one being filled.
type memSegment struct {
	chunks [][]byte
	size   int
}

func (s *memSegment) write(b []byte) {
	s.size += len(b)
	for len(b) > 0 {
		last := len(s.chunks) - 1
		if last < 0 || len(s.chunks[last]) == memChunk {
			s.chunks = append(s.chunks, make([]byte, 0, memChunk))
			last++
		}
		n := min(len(b), memChunk-len(s.chunks[last]))
		s.chunks[last] = append(s.chunks[last], b[:n]...)
		b = b[n:]
	}
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{segs: make(map[uint64]*memSegment)}
}

// Segments implements Store.
func (m *MemStore) Segments() ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.segs))
	for i := range m.segs {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// Append implements Store.
func (m *MemStore) Append(seg uint64, b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.segs[seg]
	if !ok {
		s = &memSegment{}
		m.segs[seg] = s
	}
	s.write(b)
	return nil
}

// Read implements Store: the segment's chunks, concatenated into a fresh
// slice.
func (m *MemStore) Read(seg uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.segs[seg]
	if !ok {
		return nil, fmt.Errorf("wal: no segment %d", seg)
	}
	out := make([]byte, 0, s.size)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out, nil
}

// Remove implements Store.
func (m *MemStore) Remove(seg uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.segs, seg)
	return nil
}

// Sync implements Store (a no-op beyond counting, for tests).
func (m *MemStore) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncs++
	return nil
}

// SaveCheckpoint implements Store.
func (m *MemStore) SaveCheckpoint(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ckpt = append([]byte(nil), b...)
	return nil
}

// LoadCheckpoint implements Store.
func (m *MemStore) LoadCheckpoint() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ckpt == nil {
		return nil, nil
	}
	out := make([]byte, len(m.ckpt))
	copy(out, m.ckpt)
	return out, nil
}

// FileStore keeps segments and the checkpoint as files in one directory
// (one directory per server). Segment files are append-only; the checkpoint
// is replaced atomically via rename.
type FileStore struct {
	dir string

	mu    sync.Mutex
	dirty map[string]bool // segment paths appended since the last Sync
}

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
	ckptName  = "checkpoint.bin"
)

// NewFileStore creates (if needed) and opens a file-backed store rooted at
// dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating store dir: %w", err)
	}
	return &FileStore{dir: dir, dirty: make(map[string]bool)}, nil
}

func (f *FileStore) segPath(seg uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("%s%08d%s", segPrefix, seg, segSuffix))
}

// Segments implements Store.
func (f *FileStore) Segments() ([]uint64, error) {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var idx uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%d", &idx); err != nil {
			continue
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// Append implements Store.
func (f *FileStore) Append(seg uint64, b []byte) error {
	path := f.segPath(seg)
	fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer fh.Close()
	if _, err := fh.Write(b); err != nil {
		return err
	}
	f.mu.Lock()
	f.dirty[path] = true
	f.mu.Unlock()
	return nil
}

// Read implements Store.
func (f *FileStore) Read(seg uint64) ([]byte, error) {
	return os.ReadFile(f.segPath(seg))
}

// Remove implements Store.
func (f *FileStore) Remove(seg uint64) error {
	err := os.Remove(f.segPath(seg))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Sync implements Store: fsync every segment file appended since the last
// barrier (the actual durability point for their records), then the
// directory so newly created segment files themselves persist.
func (f *FileStore) Sync() error {
	f.mu.Lock()
	paths := make([]string, 0, len(f.dirty))
	for p := range f.dirty {
		paths = append(paths, p)
	}
	f.dirty = make(map[string]bool)
	f.mu.Unlock()
	for _, p := range paths {
		fh, err := os.OpenFile(p, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if err := fh.Sync(); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	dh, err := os.Open(f.dir)
	if err != nil {
		return err
	}
	defer dh.Close()
	return dh.Sync()
}

// SaveCheckpoint implements Store: write to a temp file, fsync, rename.
func (f *FileStore) SaveCheckpoint(b []byte) error {
	tmp := filepath.Join(f.dir, ckptName+".tmp")
	fh, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(b); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(f.dir, ckptName))
}

// LoadCheckpoint implements Store.
func (f *FileStore) LoadCheckpoint() ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(f.dir, ckptName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return b, err
}
