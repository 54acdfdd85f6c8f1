package shadow

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/fsapi"
)

// Model is the namespace-and-contents shadow: every directory and regular
// file a test has created, with flat byte contents, plus the per-file
// bookkeeping needed to apply the durability contract after memory-losing
// crashes (DESIGN.md §10). Step is its one way in: it applies an Op and says
// what the file system must answer.
//
// Model is safe for concurrent use; the chaos harness steps disjoint
// per-process subtrees from several worker goroutines at once.
type Model struct {
	mu    sync.Mutex
	dirs  map[string]bool
	files map[string]*fileState
	roots []string

	// DirectAccess mirrors the deployment's Techniques.DirectAccess. When
	// set, file contents travel from clients straight into the shared
	// buffer cache and are durable against a memory-losing crash only up to
	// the owning server's last checkpoint; when clear, every write is a
	// WAL-logged server-path write and survives any crash.
	DirectAccess bool
}

// fileState is one shadow file plus its durability bookkeeping.
type fileState struct {
	content *File
	// server is the id of the file server storing the inode (and therefore
	// the buffer-cache partition holding the file's blocks); -1 if unknown.
	server int
	// dirtySinceCkpt is set when direct-access content was written since the
	// owning server's last checkpoint: exactly the bytes a memory-losing
	// crash of that server may legally lose.
	dirtySinceCkpt bool
	// suspect marks a file whose contents may have been legally lost; Verify
	// checks only its size until Reconcile adopts the live contents.
	suspect bool
}

// NewModel returns a shadow holding only the given pre-existing directories
// (the workload's root, e.g. "/crash"). Paths must be absolute and clean.
// The namespace above the roots is taken to hold nothing but the paths down
// to them.
func NewModel(roots ...string) *Model {
	m := &Model{dirs: make(map[string]bool), files: make(map[string]*fileState), roots: roots}
	for _, r := range roots {
		m.dirs[r] = true
	}
	return m
}

// Step applies op to the model and returns what the file system must answer
// it: the errno POSIX gives, plus the count written, the bytes read, the
// size or the sorted listing. Rename keeps Hare's one deviation: a directory
// onto a directory answers EEXIST even when the target is empty.
func (m *Model) Step(op Op) Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.step(op)
}

// step is Step with m.mu held.
func (m *Model) step(op Op) Result {
	n, e := m.lookup(op.Path)
	if e != fsapi.OK {
		return Result{Err: e}
	}
	switch op.Kind {
	case OpMkdir:
		return Result{Err: m.mkdir(op.Path)}
	case OpRmdir:
		return Result{Err: m.rmdir(op.Path)}
	case OpRmdirCycle:
		for i := 0; i < 2; i++ {
			if e := m.mkdir(op.Path); e != fsapi.OK {
				return Result{Err: e}
			}
			m.rmdir(op.Path)
		}
		return Result{}
	case OpRename:
		return Result{Err: m.rename(op.Path, op.Path2, n)}
	case OpPipeFork:
		return Result{Data: op.Data()}
	case OpStatCheck:
		if n == isDir {
			return Result{Size: -1}
		}
	case OpReadDir:
		if n == isDir {
			return Result{Names: sortedKeys(m.children(op.Path))}
		}
		if n == isFile {
			return Result{Err: fsapi.ENOTDIR}
		}
	}
	// Every other op opens, stats or unlinks a regular file.
	st := m.files[op.Path]
	switch {
	case n == isDir:
		return Result{Err: fsapi.EISDIR}
	case n == isNone && op.Kind != OpCreate:
		return Result{Err: fsapi.ENOENT}
	case n == isNone:
		st = &fileState{server: -1}
		m.files[op.Path] = st
	}
	switch op.Kind {
	case OpCreate:
		st.content, st.suspect = NewFile(nil), false
		return m.write(st, 0, op)
	case OpAppend:
		return m.write(st, st.content.Size(), op)
	case OpOverwrite:
		return m.write(st, op.Off, op)
	case OpTruncate:
		st.content.Truncate(int64(op.Size))
		st.dirtySinceCkpt = st.dirtySinceCkpt || m.DirectAccess
		return Result{}
	case OpRead:
		return Result{Data: append([]byte{}, st.content.Bytes()...)}
	case OpStatCheck:
		return Result{Size: st.content.Size()}
	case OpUnlink:
		delete(m.files, op.Path)
		return Result{}
	}
	return Result{Err: fsapi.ENOSYS}
}

// write writes op's data into st at off.
func (m *Model) write(st *fileState, off int64, op Op) Result {
	data := op.Data()
	st.content.WriteAt(off, data)
	st.dirtySinceCkpt = st.dirtySinceCkpt || m.DirectAccess
	return Result{N: len(data)}
}

// node is what the model holds at a path.
type node uint8

const (
	isNone node = iota
	isDir
	isFile
)

// lookup says what path names, or answers the walk to it: ENOENT when an
// ancestor is missing, ENOTDIR when one is a file.
func (m *Model) lookup(path string) (node, fsapi.Errno) {
	for i := 1; i < len(path); i++ {
		if path[i] != '/' {
			continue
		}
		switch m.at(path[:i]) {
		case isNone:
			return isNone, fsapi.ENOENT
		case isFile:
			return isNone, fsapi.ENOTDIR
		}
	}
	return m.at(path), fsapi.OK
}

// at says what path names. A path above a root ("/" included) is a
// directory.
func (m *Model) at(path string) node {
	if m.dirs[path] {
		return isDir
	}
	if _, ok := m.files[path]; ok {
		return isFile
	}
	for _, r := range m.roots {
		if path == "/" || under(r, path) {
			return isDir
		}
	}
	return isNone
}

// under reports whether path lies strictly below dir.
func under(path, dir string) bool {
	return len(path) > len(dir) && path[len(dir)] == '/' && path[:len(dir)] == dir
}

func (m *Model) mkdir(path string) fsapi.Errno {
	switch n, e := m.lookup(path); {
	case e != fsapi.OK:
		return e
	case n != isNone:
		return fsapi.EEXIST
	}
	m.dirs[path] = true
	return fsapi.OK
}

func (m *Model) rmdir(path string) fsapi.Errno {
	switch n, e := m.lookup(path); {
	case e != fsapi.OK:
		return e
	case n == isNone:
		return fsapi.ENOENT
	case n == isFile:
		return fsapi.ENOTDIR
	case len(m.children(path)) > 0:
		return fsapi.ENOTEMPTY
	}
	delete(m.dirs, path)
	return fsapi.OK
}

// rename moves a file, or a directory with everything under it. Only a file
// replaces a file: a directory target is refused even when empty, since
// Hare's rename has no cross-shard emptiness check.
func (m *Model) rename(from, to string, src node) fsapi.Errno {
	switch {
	case src == isNone:
		return fsapi.ENOENT
	case from == to:
		return fsapi.OK
	case src == isDir && under(to, from):
		return fsapi.EINVAL
	}
	switch dst, e := m.lookup(to); {
	case e != fsapi.OK:
		return e
	case dst == isDir && src == isFile:
		return fsapi.EISDIR
	case dst == isFile && src == isDir:
		return fsapi.ENOTDIR
	case dst == isDir:
		return fsapi.EEXIST
	}
	// A moved name never lands under from (to is not below it), so the
	// loops do not meet the names they add.
	for d := range m.dirs {
		if d == from || under(d, from) {
			delete(m.dirs, d)
			m.dirs[to+d[len(from):]] = true
		}
	}
	for f, st := range m.files {
		if f == from || under(f, from) {
			delete(m.files, f)
			m.files[to+f[len(from):]] = st
		}
	}
	return fsapi.OK
}

// children returns the expected entry names directly under dir.
func (m *Model) children(dir string) map[string]bool {
	out := make(map[string]bool)
	collect := func(path string) {
		if under(path, dir) && !strings.Contains(path[len(dir)+1:], "/") {
			out[path[len(dir)+1:]] = true
		}
	}
	for d := range m.dirs {
		collect(d)
	}
	for f := range m.files {
		collect(f)
	}
	return out
}

// NoteHome records the file server storing path's inode, which a
// memory-losing crash of that server puts at risk (CrashLostMemory). A file
// whose home is never noted is at risk in every such crash.
func (m *Model) NoteHome(path string, server int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.files[path]; st != nil {
		st.server = server
	}
}

// NoteCheckpoint records that server's state (including its buffer-cache
// partition's block snapshots) was checkpointed: content written before this
// moment is durable even against memory loss. server -1 means every server.
func (m *Model) NoteCheckpoint(server int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.files {
		if server < 0 || st.server == server {
			st.dirtySinceCkpt = false
		}
	}
}

// CrashLostMemory applies the durability contract for a memory-losing crash
// of the given server: files homed there whose direct-access contents were
// written since the server's last checkpoint become suspect (their bytes may
// be legally lost; their namespace entries and sizes are WAL-logged and must
// survive exactly). It returns the newly suspect paths. Files whose home
// server is unknown (-1) are treated as at risk, conservatively.
func (m *Model) CrashLostMemory(server int) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for path, st := range m.files {
		if st.dirtySinceCkpt && (st.server == server || st.server < 0) {
			st.suspect = true
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// Verify compares the live file system with the model, op by op: every
// directory's listing, every file's size, and every file's contents except
// a suspect file's, which are skipped until Reconcile.
func (m *Model) Verify(fs fsapi.Client) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ops []Op
	for _, dir := range sortedKeys(m.dirs) {
		ops = append(ops, Op{Kind: OpReadDir, Path: dir})
	}
	for _, path := range sortedKeys(m.files) {
		ops = append(ops, Op{Kind: OpStatCheck, Path: path})
		if !m.files[path].suspect {
			ops = append(ops, Op{Kind: OpRead, Path: path})
		}
	}
	for _, op := range ops {
		if err := Check(op, Do(fs, op), m.step(op)); err != nil {
			return err
		}
	}
	return nil
}

// Reconcile re-reads every suspect file from the live file system and adopts
// its contents into the shadow (the bytes were legally lost; whatever
// recovery produced is now the reference), clearing the suspect marks. Sizes
// are still required to match: namespace metadata is WAL-logged and a size
// divergence is a real conformance failure, not a legal loss.
func (m *Model) Reconcile(fs fsapi.Client) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, path := range sortedKeys(m.files) {
		st := m.files[path]
		if !st.suspect {
			continue
		}
		stat := Op{Kind: OpStatCheck, Path: path}
		if err := Check(stat, Do(fs, stat), m.step(stat)); err != nil {
			return fmt.Errorf("reconcile: %w", err)
		}
		got := Do(fs, Op{Kind: OpRead, Path: path})
		if got.Err != fsapi.OK {
			return fmt.Errorf("reconcile: read %s: %w", path, got.Err)
		}
		st.content, st.suspect, st.dirtySinceCkpt = NewFile(got.Data), false, false
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
