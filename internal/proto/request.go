package proto

import "repro/internal/fsapi"

// DirEntWire is a directory entry as carried on the wire.
type DirEntWire struct {
	Name  string
	Ino   InodeID
	Ftype fsapi.FileType
}

// StatWire is inode metadata as carried on the wire.
type StatWire struct {
	Ino   InodeID
	Ftype fsapi.FileType
	Size  int64
	Nlink int32
	Mode  fsapi.Mode
}

// FdSpec describes one inherited file descriptor in an exec request, so the
// new process on the remote core can reconstruct its descriptor table.
type FdSpec struct {
	Fd     int32   // descriptor number in the new process
	Ino    InodeID // backing inode
	SrvFd  FdID    // server-side shared descriptor (offset lives at server)
	Flags  int32   // open flags
	Offset int64   // offset (only meaningful when SrvFd == NilFd)
	Local  bool    // core-local descriptor (console); accesses proxied back
	Pipe   bool    // descriptor refers to a pipe endpoint
	Write  bool    // pipe write end (vs read end)
}

// Request is the single request message shape used for every operation.
// Only the fields relevant to the given Op are meaningful; the rest are
// zero. Using one fixed shape mirrors message-passing kernels that exchange
// fixed-format message structs, and keeps marshaling simple and uniform.
type Request struct {
	Op       Op
	ClientID int32 // registered client-library id (for invalidation tracking)

	// Epoch is the placement-map epoch the client routed this request
	// under. Zero means the request was not routed through the placement
	// map (inode/fd/pipe/control operations, and entries of centralized
	// directories, which live with the directory's inode and never
	// migrate). Servers answer a mismatched non-zero epoch with EEPOCH
	// (DESIGN.md §9).
	Epoch uint64

	Dir    InodeID // parent directory inode
	Name   string  // directory entry name
	Target InodeID // inode operated on / linked to
	Ftype  fsapi.FileType
	Mode   fsapi.Mode
	Flags  int32
	Size   int64
	Offset int64
	Whence int32
	Count  int32
	Fd     FdID
	Data   []byte

	Distributed bool // for mkdir: shard the new directory's entries
	Exclusive   bool // O_EXCL semantics for create
	Replace     bool // AddMap may replace an existing entry (rename)
	WantOpen    bool // coalesced create should also open a descriptor
	Dirty       bool // close/fd-share: client wrote the file's data directly

	// Scheduling-server fields.
	Program string
	Args    []string
	Env     []string
	Dirname string // working directory for the new process
	Fds     []FdSpec
	PID     int64
	Sig     int32
	Policy  int32 // placement policy state (round-robin counter)

	// Subs, when non-empty, makes this an OpBatch envelope whose payload
	// is the sub-requests: AppendTo encodes them in place where Data goes
	// (and ignores Data), StopOnErr marking the batch dependent. They are
	// the encoder's input only; a decoded envelope carries the payload in
	// Data, for UnmarshalBatchInto (batch.go).
	Subs      []*Request
	StopOnErr bool

	// Tracing context (internal/trace). Trace is the root-span trace ID
	// and Span the client-side parent span; servers attach child spans
	// under Span. Zero Trace means the request is untraced, and untraced
	// requests marshal byte-identically to the pre-tracing wire format
	// (the fields ride as an optional trailer), so tracing-off changes
	// neither message bytes nor any Economy counter.
	Trace uint64
	Span  uint64
}

// The wire size of a request with every variable-length field empty, and
// what one descriptor adds to it; derived from the encoder so they cannot
// drift from it.
var (
	requestFixedSize = len(new(Request).AppendTo(nil))
	fdSpecWireSize   = len((&Request{Fds: make([]FdSpec, 1)}).AppendTo(nil)) - requestFixedSize
)

// SizeHint returns the size of the request's wire form, so that a buffer of
// that capacity is never outgrown by AppendTo.
func (r *Request) SizeHint() int {
	n := requestFixedSize + len(r.Name) + len(r.Program) + len(r.Dirname) + fdSpecWireSize*len(r.Fds)
	if len(r.Subs) > 0 {
		n += batchSizeHint(r.Subs)
	} else {
		n += len(r.Data)
	}
	for _, s := range r.Args {
		n += 4 + len(s)
	}
	for _, s := range r.Env {
		n += 4 + len(s)
	}
	if r.Trace != 0 {
		n += 16
	}
	return n
}

// Marshal encodes the request into a fresh byte slice.
func (r *Request) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.SizeHint()))
}

// AppendTo encodes the request onto buf and returns the extended slice. Hot
// paths pass a recycled buffer so that marshaling allocates nothing.
func (r *Request) AppendTo(buf []byte) []byte {
	e := encoder{buf: buf}
	r.encode(&e)
	return e.bytes()
}

func (r *Request) encode(e *encoder) {
	e.u16(uint16(r.Op))
	e.i32(r.ClientID)
	e.inode(r.Dir)
	e.str(r.Name)
	e.inode(r.Target)
	e.u8(uint8(r.Ftype))
	e.u16(uint16(r.Mode))
	e.i32(r.Flags)
	e.i64(r.Size)
	e.i64(r.Offset)
	e.i32(r.Whence)
	e.i32(r.Count)
	e.u64(uint64(r.Fd))
	if len(r.Subs) > 0 {
		mark := e.reserve32()
		encodeBatch(e, r.Subs, r.StopOnErr)
		e.patch32(mark)
	} else {
		e.blob(r.Data)
	}
	e.boolean(r.Distributed)
	e.boolean(r.Exclusive)
	e.boolean(r.Replace)
	e.boolean(r.WantOpen)
	e.boolean(r.Dirty)
	e.str(r.Program)
	e.strSlice(r.Args)
	e.strSlice(r.Env)
	e.str(r.Dirname)
	e.u32(uint32(len(r.Fds)))
	for _, f := range r.Fds {
		e.i32(f.Fd)
		e.inode(f.Ino)
		e.u64(uint64(f.SrvFd))
		e.i32(f.Flags)
		e.i64(f.Offset)
		e.boolean(f.Local)
		e.boolean(f.Pipe)
		e.boolean(f.Write)
	}
	e.i64(r.PID)
	e.i32(r.Sig)
	e.i32(r.Policy)
	e.u64(r.Epoch)
	if r.Trace != 0 {
		e.u64(r.Trace)
		e.u64(r.Span)
	}
}

// UnmarshalRequest decodes a request from a wire payload into a fresh
// struct; for callers off the request path.
func UnmarshalRequest(b []byte) (*Request, error) {
	r := &Request{}
	if err := UnmarshalRequestInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

// UnmarshalRequestInto decodes a request from a wire payload into r, which
// is reset first; hot paths pass a recycled struct, whose Data capacity the
// decode reuses (so an empty Data comes back zero-length, nil only if it was
// nil before). The decoder copies every variable-length field, so r never
// aliases b and the caller may release b immediately.
func UnmarshalRequestInto(r *Request, b []byte) error {
	d := newDecoder(b)
	data := r.Data
	*r = Request{}
	r.Op = Op(d.u16())
	r.ClientID = d.i32()
	r.Dir = d.inode()
	r.Name = d.str()
	r.Target = d.inode()
	r.Ftype = fsapi.FileType(d.u8())
	r.Mode = fsapi.Mode(d.u16())
	r.Flags = d.i32()
	r.Size = d.i64()
	r.Offset = d.i64()
	r.Whence = d.i32()
	r.Count = d.i32()
	r.Fd = FdID(d.u64())
	r.Data = d.blobInto(data)
	r.Distributed = d.boolean()
	r.Exclusive = d.boolean()
	r.Replace = d.boolean()
	r.WantOpen = d.boolean()
	r.Dirty = d.boolean()
	r.Program = d.str()
	r.Args = d.strSlice()
	r.Env = d.strSlice()
	r.Dirname = d.str()
	if nfds := d.count(fdSpecWireSize); nfds > 0 {
		r.Fds = make([]FdSpec, 0, nfds)
		for i := 0; i < nfds; i++ {
			var f FdSpec
			f.Fd = d.i32()
			f.Ino = d.inode()
			f.SrvFd = FdID(d.u64())
			f.Flags = d.i32()
			f.Offset = d.i64()
			f.Local = d.boolean()
			f.Pipe = d.boolean()
			f.Write = d.boolean()
			r.Fds = append(r.Fds, f)
		}
	}
	r.PID = d.i64()
	r.Sig = d.i32()
	r.Policy = d.i32()
	r.Epoch = d.u64()
	if d.remaining() >= 16 {
		r.Trace = d.u64()
		r.Span = d.u64()
	}
	return d.finish("request")
}

// recycleKeepBytes and recycleKeepItems bound what a recycled message keeps
// of its slices' capacity: enough for a batch envelope's payload and a small
// file's extents, so that a free list of structs pins at most this much each
// and never a write payload or a large listing.
const (
	recycleKeepBytes = 4096
	recycleKeepItems = 64
)

// Recycle readies a request its owner is done with for the next
// UnmarshalRequestInto: Data keeps its capacity up to recycleKeepBytes, every
// other slice is dropped.
func (r *Request) Recycle() {
	if cap(r.Data) > recycleKeepBytes {
		r.Data = nil
	}
	r.Fds, r.Args, r.Env, r.Subs = nil, nil, nil, nil
}
