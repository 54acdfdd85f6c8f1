package proto

import (
	"slices"
	"strings"
	"unsafe"

	"repro/internal/fsapi"
)

// Extent is a run of Count consecutive buffer-cache blocks starting at
// block Start. Block lists travel extent-coded so OPEN/EXTEND/TRUNCATE
// message bytes scale with a file's fragmentation, not its size: a freshly
// allocated file is one run regardless of length (DESIGN.md §8).
type Extent struct {
	Start uint64
	Count uint64
}

// Response is the single response message shape used for every operation.
// Err is fsapi.OK on success. Only the fields relevant to the request's Op
// are meaningful.
type Response struct {
	Err fsapi.Errno

	Ino     InodeID // resulting / looked-up inode
	Server  int32   // server storing the inode named by a directory entry
	Ftype   fsapi.FileType
	Size    int64
	Offset  int64
	N       int64 // generic count (bytes read/written, entries removed, ...)
	Fd      FdID
	Extents []Extent // extent-coded buffer-cache block list for direct access
	Version uint64   // inode data version (bumped on any data mutation)
	Data    []byte
	Stat    StatWire
	Ents    []DirEntWire
	Dist    bool  // looked-up/created directory has distributed entries
	Refs    int32 // remaining reference count (shared fd ops)
	// Epoch is the server's current placement-map epoch. Meaningful on
	// EEPOCH errors (so a behind/ahead client can see how far) and on the
	// shard-migration ops.
	Epoch uint64

	ExitStatus int32 // exec: exit status of the remote process
	PID        int64 // exec: pid assigned to the remote process

	// Subs, when non-empty, makes this the reply to an OpBatch envelope:
	// AppendTo encodes the sub-responses in place where Data goes (and
	// ignores Data). They are the encoder's input only; a decoded reply
	// carries them in Data, for UnmarshalBatchResponsesInto (batch.go).
	Subs []*Response
}

// The wire size of a response with every variable-length field empty, and
// what one directory entry with an empty name adds to it; derived from the
// encoder so they cannot drift from it.
var (
	responseFixedSize = len(new(Response).AppendTo(nil))
	direntWireSize    = len((&Response{Ents: make([]DirEntWire, 1)}).AppendTo(nil)) - responseFixedSize
)

// SizeHint returns the size of the response's wire form, so that a buffer of
// that capacity is never outgrown by AppendTo.
func (r *Response) SizeHint() int {
	n := responseFixedSize + 16*len(r.Extents) + direntWireSize*len(r.Ents)
	if len(r.Subs) > 0 {
		n += batchResponsesSizeHint(r.Subs)
	} else {
		n += len(r.Data)
	}
	for i := range r.Ents {
		n += len(r.Ents[i].Name)
	}
	return n
}

// Marshal encodes the response into a fresh byte slice.
func (r *Response) Marshal() []byte {
	return r.AppendTo(make([]byte, 0, r.SizeHint()))
}

// AppendTo encodes the response onto buf and returns the extended slice.
// Hot paths pass a recycled buffer so that marshaling allocates nothing.
func (r *Response) AppendTo(buf []byte) []byte {
	e := encoder{buf: buf}
	r.encode(&e)
	return e.bytes()
}

func (r *Response) encode(e *encoder) {
	e.i32(int32(r.Err))
	e.inode(r.Ino)
	e.i32(r.Server)
	e.u8(uint8(r.Ftype))
	e.i64(r.Size)
	e.i64(r.Offset)
	e.i64(r.N)
	e.u64(uint64(r.Fd))
	e.u32(uint32(len(r.Extents)))
	for _, ext := range r.Extents {
		e.u64(ext.Start)
		e.u64(ext.Count)
	}
	e.u64(r.Version)
	if len(r.Subs) > 0 {
		mark := e.reserve32()
		encodeBatchResponses(e, r.Subs)
		e.patch32(mark)
	} else {
		e.blob(r.Data)
	}
	e.inode(r.Stat.Ino)
	e.u8(uint8(r.Stat.Ftype))
	e.i64(r.Stat.Size)
	e.i32(r.Stat.Nlink)
	e.u16(uint16(r.Stat.Mode))
	e.u32(uint32(len(r.Ents)))
	for _, ent := range r.Ents {
		e.str(ent.Name)
		e.inode(ent.Ino)
		e.u8(uint8(ent.Ftype))
	}
	e.boolean(r.Dist)
	e.i32(r.Refs)
	e.i32(r.ExitStatus)
	e.i64(r.PID)
	e.u64(r.Epoch)
}

// UnmarshalResponse decodes a response from a wire payload into a fresh
// struct; for callers off the request path.
func UnmarshalResponse(b []byte) (*Response, error) {
	r := &Response{}
	if err := UnmarshalResponseInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

// UnmarshalResponseInto decodes a response from a wire payload into r, which
// is reset first; hot paths pass a recycled struct, whose Data, Extents and
// Ents capacity the decode reuses (so an empty one comes back zero-length,
// nil only if it was nil before). The decoder copies every variable-length
// field — the entries' names into one string they share — so r never
// aliases b and the caller may release b immediately.
func UnmarshalResponseInto(r *Response, b []byte) error {
	d := newDecoder(b)
	data, exts, ents := r.Data, r.Extents[:0], r.Ents[:0]
	*r = Response{}
	r.Err = fsapi.Errno(d.i32())
	r.Ino = d.inode()
	r.Server = d.i32()
	r.Ftype = fsapi.FileType(d.u8())
	r.Size = d.i64()
	r.Offset = d.i64()
	r.N = d.i64()
	r.Fd = FdID(d.u64())
	r.Extents = exts
	for n := d.count(16); n > 0; n-- {
		r.Extents = append(r.Extents, Extent{Start: d.u64(), Count: d.u64()})
	}
	r.Version = d.u64()
	r.Data = d.blobInto(data)
	r.Stat.Ino = d.inode()
	r.Stat.Ftype = fsapi.FileType(d.u8())
	r.Stat.Size = d.i64()
	r.Stat.Nlink = d.i32()
	r.Stat.Mode = fsapi.Mode(d.u16())
	r.Ents = ents
	if n := d.count(direntWireSize); n > 0 {
		// Every name goes into one string, which the entries slice: a
		// listing costs one allocation, not one per name. The names take at
		// most what is left of the message past the entries' fixed parts.
		r.Ents = slices.Grow(r.Ents, n)
		var names strings.Builder
		names.Grow(d.remaining() - n*direntWireSize)
		for ; n > 0; n-- {
			at := names.Len()
			names.Write(d.view())
			r.Ents = append(r.Ents, DirEntWire{Name: names.String()[at:], Ino: d.inode(), Ftype: fsapi.FileType(d.u8())})
		}
	}
	r.Dist = d.boolean()
	r.Refs = d.i32()
	r.ExitStatus = d.i32()
	r.PID = d.i64()
	r.Epoch = d.u64()
	return d.finish("response")
}

// recycleKeepEnts bounds the entries a recycled response keeps room for:
// recycleKeepBytes' worth, a listing of about a hundred names.
const recycleKeepEnts = recycleKeepBytes / int(unsafe.Sizeof(DirEntWire{}))

// Recycle readies a response its owner is done with for the next
// UnmarshalResponseInto: Data keeps its capacity up to recycleKeepBytes,
// Extents up to recycleKeepItems elements and Ents up to recycleKeepEnts
// (the names its entries point at are released).
func (r *Response) Recycle() {
	if cap(r.Data) > recycleKeepBytes {
		r.Data = nil
	}
	if cap(r.Extents) > recycleKeepItems {
		r.Extents = nil
	}
	if cap(r.Ents) > recycleKeepEnts {
		r.Ents = nil
	}
	clear(r.Ents)
	r.Subs = nil
}

// ErrResponse builds a response carrying only an error.
func ErrResponse(err fsapi.Errno) *Response { return &Response{Err: err} }

// BlockCount returns the total number of blocks the extents cover.
func BlockCount(exts []Extent) int {
	total := 0
	for _, e := range exts {
		total += int(e.Count)
	}
	return total
}

// Invalidation is the payload of a directory-cache invalidation callback
// (server -> client), identifying the cached name to drop.
type Invalidation struct {
	Dir  InodeID
	Name string
}

var invalidationFixedSize = len(new(Invalidation).AppendTo(nil))

// SizeHint returns the size of the invalidation's wire form.
func (iv *Invalidation) SizeHint() int { return invalidationFixedSize + len(iv.Name) }

// AppendTo encodes the invalidation onto buf and returns the extended slice.
func (iv *Invalidation) AppendTo(buf []byte) []byte {
	e := encoder{buf: buf}
	e.inode(iv.Dir)
	e.str(iv.Name)
	return e.bytes()
}

// UnmarshalInvalidation decodes an invalidation callback payload.
func UnmarshalInvalidation(b []byte) (Invalidation, error) {
	d := newDecoder(b)
	iv := Invalidation{Dir: d.inode(), Name: d.str()}
	return iv, d.finish("invalidation")
}

// Hash computes the directory-entry placement hash from the paper:
// hash(dirInode, name) % NSERVERS selects the server that stores the entry
// for `name` in the (distributed) directory `dir`. The dir is identified by
// its inode number so renaming the parent does not re-hash its entries.
func Hash(dir InodeID, name string) uint64 {
	// FNV-1a over the inode id and the name.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(dir.Local >> (8 * i)))
	}
	for i := 0; i < 4; i++ {
		mix(byte(uint32(dir.Server) >> (8 * i)))
	}
	for i := 0; i < len(name); i++ {
		mix(name[i])
	}
	return h
}
