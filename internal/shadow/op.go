package shadow

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/fsapi"
)

// OpKind enumerates the POSIX operations the model and the executor speak.
type OpKind uint8

// Operation kinds.
const (
	OpMkdir OpKind = iota
	OpCreate
	OpAppend
	OpOverwrite
	OpTruncate
	OpRead
	OpStatCheck
	OpReadDir
	OpRename
	OpUnlink
	OpRmdirCycle
	OpPipeFork
	OpRmdir
)

var opKindNames = [...]string{
	"mkdir", "create", "append", "overwrite", "truncate", "read",
	"stat", "readdir", "rename", "unlink", "rmdircycle", "pipefork", "rmdir",
}

// String names the op kind.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "unknown"
}

// Op is one POSIX operation. Paths are absolute and clean. Do runs it on a
// live file system and Model.Step says what that must answer.
type Op struct {
	Kind  OpKind
	Path  string
	Path2 string // rename target
	Size  int    // bytes written (create/append/overwrite/pipefork) or new size (truncate)
	Off   int64  // overwrite offset
	Seed  uint64 // content pattern seed
	Sync  bool   // fsync before close (write ops)
}

// String renders the op as one line of a chaos plan.
func (op Op) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s path=%s", op.Kind, op.Path)
	if op.Path2 != "" {
		fmt.Fprintf(&sb, " to=%s", op.Path2)
	}
	if op.Size != 0 {
		fmt.Fprintf(&sb, " size=%d", op.Size)
	}
	if op.Off != 0 {
		fmt.Fprintf(&sb, " off=%d", op.Off)
	}
	if op.Seed != 0 {
		fmt.Fprintf(&sb, " seed=%d", op.Seed)
	}
	if op.Sync {
		sb.WriteString(" sync")
	}
	return sb.String()
}

// Data returns the bytes a write op writes: Size bytes of a SplitMix64
// stream drawn from Seed, the same on every run.
func (op Op) Data() []byte {
	salt := uint64(0xDA7A)
	state := op.Seed ^ (salt * 0x9e3779b97f4a7c15)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	next()
	out := make([]byte, op.Size)
	for i := range out {
		out[i] = byte(next())
	}
	return out
}

// Result is what an op answers: its errno, plus the count written (create,
// append, overwrite), the size (stat; -1 for a directory), the bytes read
// (read, pipefork) or the sorted listing (readdir).
type Result struct {
	Err   fsapi.Errno
	N     int
	Size  int64
	Data  []byte
	Names []string
}

// String renders the result compactly: the errno's short name and whatever
// the op returned besides.
func (r Result) String() string {
	name, _, _ := strings.Cut(r.Err.Error(), ":")
	var sb strings.Builder
	sb.WriteString("{" + name)
	if r.N != 0 {
		fmt.Fprintf(&sb, " n=%d", r.N)
	}
	if r.Size != 0 {
		fmt.Fprintf(&sb, " size=%d", r.Size)
	}
	if r.Data != nil {
		fmt.Fprintf(&sb, " %d bytes", len(r.Data))
	}
	if r.Names != nil {
		fmt.Fprintf(&sb, " %v", r.Names)
	}
	sb.WriteString("}")
	return sb.String()
}

// Check compares what the file system answered an op with what the model
// says it must answer, and names the op and both results when they differ.
func Check(op Op, got, want Result) error {
	if got.Err == want.Err && got.N == want.N && got.Size == want.Size &&
		bytes.Equal(got.Data, want.Data) && slices.Equal(got.Names, want.Names) {
		return nil
	}
	detail := ""
	if !bytes.Equal(got.Data, want.Data) {
		detail = ": " + diffDetail(got.Data, want.Data)
	}
	return fmt.Errorf("%s: file system answered %s, model %s%s", op, got, want, detail)
}

// diffDetail pinpoints the first diverging byte.
func diffDetail(got, want []byte) string {
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	if at == len(got) || at == len(want) {
		return fmt.Sprintf("lengths differ: got %d bytes, want %d", len(got), len(want))
	}
	return fmt.Sprintf("first diff at byte %d of %d: got %#02x, want %#02x", at, len(want), got[at], want[at])
}

// Do runs op on a live file system and returns its answer. OpPipeFork needs
// a process to fork, so its caller runs it; Do answers it ENOSYS.
func Do(fs fsapi.Client, op Op) Result {
	switch op.Kind {
	case OpMkdir:
		return answer(fs.Mkdir(op.Path, fsapi.MkdirOpt{}))
	case OpRmdir:
		return answer(fs.Rmdir(op.Path))
	case OpCreate:
		return write(fs, op, fsapi.OCreate|fsapi.OWrOnly|fsapi.OTrunc, fsapi.Mode644)
	case OpAppend:
		return write(fs, op, fsapi.OWrOnly|fsapi.OAppend, 0)
	case OpOverwrite:
		return write(fs, op, fsapi.OWrOnly, 0)
	case OpTruncate:
		fd, err := fs.Open(op.Path, fsapi.OWrOnly, 0)
		if err != nil {
			return answer(err)
		}
		if err := fs.Ftruncate(fd, int64(op.Size)); err != nil {
			fs.Close(fd)
			return answer(err)
		}
		return answer(fs.Close(fd))
	case OpRead:
		return read(fs, op.Path)
	case OpStatCheck:
		st, err := fs.Stat(op.Path)
		if err != nil {
			return answer(err)
		}
		if st.Type == fsapi.TypeDir {
			return Result{Size: -1}
		}
		return Result{Size: st.Size}
	case OpReadDir:
		ents, err := fs.ReadDir(op.Path)
		if err != nil {
			return answer(err)
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name
		}
		slices.Sort(names)
		return Result{Names: names}
	case OpRename:
		return answer(fs.Rename(op.Path, op.Path2))
	case OpUnlink:
		return answer(fs.Unlink(op.Path))
	case OpRmdirCycle:
		// The name must be reusable after the rmdir (its tombstone must not
		// shadow it), so the cycle runs twice.
		for i := 0; i < 2; i++ {
			if err := fs.Mkdir(op.Path, fsapi.MkdirOpt{}); err != nil {
				return answer(err)
			}
			if err := fs.Rmdir(op.Path); err != nil {
				return answer(err)
			}
		}
		return Result{}
	}
	return Result{Err: fsapi.ENOSYS}
}

// write opens op.Path with flags, writes op's data (at op.Off for an
// overwrite), fsyncs when op.Sync asks and closes, answering the first error
// and the count written.
func write(fs fsapi.Client, op Op, flags int, mode fsapi.Mode) Result {
	fd, err := fs.Open(op.Path, flags, mode)
	if err != nil {
		return answer(err)
	}
	var r Result
	if op.Kind == OpOverwrite {
		r.N, err = fs.Pwrite(fd, op.Data(), op.Off)
	} else {
		r.N, err = fs.Write(fd, op.Data())
	}
	if err == nil && op.Sync {
		err = fs.Fsync(fd)
	}
	if err != nil {
		fs.Close(fd)
	} else {
		err = fs.Close(fd)
	}
	r.Err = errnoOf(err)
	return r
}

// read reads a file to its end, looping on partial reads (a read may
// legally return fewer bytes than asked, e.g. one block at a time). The
// first read asks for 64 KiB, so a smaller file takes that read and one more
// that meets end of file.
func read(fs fsapi.Client, path string) Result {
	fd, err := fs.Open(path, fsapi.ORdOnly, 0)
	if err != nil {
		return answer(err)
	}
	defer fs.Close(fd)
	buf := make([]byte, 64<<10)
	total := 0
	for {
		if total == len(buf) {
			buf = append(buf, make([]byte, len(buf))...)
		}
		n, err := fs.Read(fd, buf[total:])
		if err != nil {
			return answer(err)
		}
		if n == 0 {
			return Result{Data: buf[:total]}
		}
		total += n
	}
}

func answer(err error) Result { return Result{Err: errnoOf(err)} }

// errnoOf maps an error onto its errno; an error that carries none is EIO.
func errnoOf(err error) fsapi.Errno {
	if err == nil {
		return fsapi.OK
	}
	var e fsapi.Errno
	if errors.As(err, &e) {
		return e
	}
	return fsapi.EIO
}
