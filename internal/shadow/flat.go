// Package shadow provides the flat reference models the repository's
// randomized and fault-injection tests check the real system against.
//
// Two shadows live here, each a deliberately naive, obviously-correct
// re-implementation of state the real system keeps in sophisticated form:
//
//   - Model is a namespace-and-contents shadow (paths, directory entries,
//     flat per-file byte buffers) used by the crash-recovery workload and
//     the chaos harness to diff a live file system against the expected
//     state at quiescent points, including the tolerance rules for writes
//     legally lost by memory-losing crashes (DESIGN.md §10).
//
//   - Blocks is a block/line-level shadow of the private-cache + shared-DRAM
//     pair used by the ncc data-path property test: flat buffers with
//     per-line dirty bits, independent of the extent-coded implementation.
//
// Both were originally private to their tests (workload/crash.go and
// internal/ncc's property test); the chaos harness generalizes them into
// this one shared package. The package intentionally imports nothing but
// fsapi and the standard library so every layer's tests can use it without
// import cycles.
package shadow

// File is a flat shadow of one regular file's contents: a plain byte buffer
// that grows on write and shrinks on truncate, with none of the block, cache
// or extent machinery of the real data path.
type File struct {
	data []byte
}

// NewFile returns a shadow file holding a copy of data.
func NewFile(data []byte) *File {
	f := &File{}
	if len(data) > 0 {
		f.data = append([]byte(nil), data...)
	}
	return f
}

// Size returns the file's current size.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Bytes returns the file's contents. The returned slice aliases the shadow's
// buffer; callers must not mutate it.
func (f *File) Bytes() []byte { return f.data }

// WriteAt writes p at off, zero-filling any gap (POSIX sparse-write
// semantics flattened to explicit zero bytes).
func (f *File) WriteAt(off int64, p []byte) {
	end := off + int64(len(p))
	if end > int64(len(f.data)) {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], p)
}

// Truncate sets the file's size, zero-filling when growing.
func (f *File) Truncate(size int64) {
	if size < 0 {
		size = 0
	}
	if size <= int64(len(f.data)) {
		f.data = f.data[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, f.data)
	f.data = grown
}
