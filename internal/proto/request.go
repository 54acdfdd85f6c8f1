package proto

import (
	"repro/internal/fsapi"
	"repro/internal/wire"
)

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
	Op Op
	// ClientID is not on the wire and nothing reads it: a server knows a
	// client by the endpoint its request comes from (msg.Envelope.Src).
	ClientID int32

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
	buf = wire.AppendU16(buf, uint16(r.Op))
	buf = AppendInode(buf, r.Dir)
	buf = wire.AppendStr(buf, r.Name)
	buf = AppendInode(buf, r.Target)
	buf = wire.AppendU8(buf, uint8(r.Ftype))
	buf = wire.AppendU16(buf, uint16(r.Mode))
	buf = wire.AppendI32(buf, r.Flags)
	buf = wire.AppendI64(buf, r.Size)
	buf = wire.AppendI64(buf, r.Offset)
	buf = wire.AppendI32(buf, r.Whence)
	buf = wire.AppendI32(buf, r.Count)
	buf = wire.AppendU64(buf, uint64(r.Fd))
	if len(r.Subs) > 0 {
		at := len(buf)
		buf = appendBatch(wire.AppendU32(buf, 0), r.Subs, r.StopOnErr)
		wire.Patch32(buf, at)
	} else {
		buf = wire.AppendBlob(buf, r.Data)
	}
	buf = wire.AppendBool(buf, r.Distributed)
	buf = wire.AppendBool(buf, r.Exclusive)
	buf = wire.AppendBool(buf, r.Replace)
	buf = wire.AppendBool(buf, r.WantOpen)
	buf = wire.AppendBool(buf, r.Dirty)
	buf = wire.AppendStr(buf, r.Program)
	buf = wire.AppendStrSlice(buf, r.Args)
	buf = wire.AppendStrSlice(buf, r.Env)
	buf = wire.AppendStr(buf, r.Dirname)
	buf = wire.AppendU32(buf, uint32(len(r.Fds)))
	for _, f := range r.Fds {
		buf = wire.AppendI32(buf, f.Fd)
		buf = AppendInode(buf, f.Ino)
		buf = wire.AppendU64(buf, uint64(f.SrvFd))
		buf = wire.AppendI32(buf, f.Flags)
		buf = wire.AppendI64(buf, f.Offset)
		buf = wire.AppendBool(buf, f.Local)
		buf = wire.AppendBool(buf, f.Pipe)
		buf = wire.AppendBool(buf, f.Write)
	}
	buf = wire.AppendI64(buf, r.PID)
	buf = wire.AppendI32(buf, r.Sig)
	buf = wire.AppendI32(buf, r.Policy)
	buf = wire.AppendU64(buf, r.Epoch)
	if r.Trace != 0 {
		buf = wire.AppendU64(buf, r.Trace)
		buf = wire.AppendU64(buf, r.Span)
	}
	return buf
}

// UnmarshalRequestInto decodes a request from a wire payload into r, which
// is reset first; hot paths pass a recycled struct, whose Data capacity the
// decode reuses (so an empty Data comes back zero-length, nil only if it was
// nil before). The decoder copies every variable-length field, so r never
// aliases b and the caller may release b immediately. (The sub-requests of a
// batch may instead borrow their names from the envelope's Data, which the
// caller owns: UnmarshalBatchLent.)
func UnmarshalRequestInto(r *Request, b []byte) error {
	return r.decode(wire.NewDecoder(b))
}

// decode reads a whole request from d into r, as UnmarshalRequestInto
// describes; its strings are views of d's buffer when d lends them.
func (r *Request) decode(d *wire.Decoder) error {
	data := r.Data
	*r = Request{}
	r.Op = Op(d.U16())
	r.Dir = DecodeInode(d)
	r.Name = d.Str()
	r.Target = DecodeInode(d)
	r.Ftype = fsapi.FileType(d.U8())
	r.Mode = fsapi.Mode(d.U16())
	r.Flags = d.I32()
	r.Size = d.I64()
	r.Offset = d.I64()
	r.Whence = d.I32()
	r.Count = d.I32()
	r.Fd = FdID(d.U64())
	r.Data = d.BlobInto(data)
	r.Distributed = d.Bool()
	r.Exclusive = d.Bool()
	r.Replace = d.Bool()
	r.WantOpen = d.Bool()
	r.Dirty = d.Bool()
	r.Program = d.Str()
	r.Args = d.StrSlice()
	r.Env = d.StrSlice()
	r.Dirname = d.Str()
	if nfds := d.Count(fdSpecWireSize); nfds > 0 {
		r.Fds = make([]FdSpec, 0, nfds)
		for i := 0; i < nfds; i++ {
			var f FdSpec
			f.Fd = d.I32()
			f.Ino = DecodeInode(d)
			f.SrvFd = FdID(d.U64())
			f.Flags = d.I32()
			f.Offset = d.I64()
			f.Local = d.Bool()
			f.Pipe = d.Bool()
			f.Write = d.Bool()
			r.Fds = append(r.Fds, f)
		}
	}
	r.PID = d.I64()
	r.Sig = d.I32()
	r.Policy = d.I32()
	r.Epoch = d.U64()
	if d.Remaining() >= 16 {
		r.Trace = d.U64()
		r.Span = d.U64()
	}
	return d.Finish("proto: decoding request")
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
