package proto

import (
	"slices"
	"strings"
	"unsafe"

	"repro/internal/fsapi"
	"repro/internal/wire"
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
	buf = wire.AppendI32(buf, int32(r.Err))
	buf = AppendInode(buf, r.Ino)
	buf = wire.AppendI32(buf, r.Server)
	buf = wire.AppendU8(buf, uint8(r.Ftype))
	buf = wire.AppendI64(buf, r.Size)
	buf = wire.AppendI64(buf, r.Offset)
	buf = wire.AppendI64(buf, r.N)
	buf = wire.AppendU64(buf, uint64(r.Fd))
	buf = wire.AppendU32(buf, uint32(len(r.Extents)))
	for _, ext := range r.Extents {
		buf = wire.AppendU64(buf, ext.Start)
		buf = wire.AppendU64(buf, ext.Count)
	}
	buf = wire.AppendU64(buf, r.Version)
	if len(r.Subs) > 0 {
		at := len(buf)
		buf = appendBatchResponses(wire.AppendU32(buf, 0), r.Subs)
		wire.Patch32(buf, at)
	} else {
		buf = wire.AppendBlob(buf, r.Data)
	}
	buf = AppendInode(buf, r.Stat.Ino)
	buf = wire.AppendU8(buf, uint8(r.Stat.Ftype))
	buf = wire.AppendI64(buf, r.Stat.Size)
	buf = wire.AppendI32(buf, r.Stat.Nlink)
	buf = wire.AppendU16(buf, uint16(r.Stat.Mode))
	buf = wire.AppendU32(buf, uint32(len(r.Ents)))
	for _, ent := range r.Ents {
		buf = wire.AppendStr(buf, ent.Name)
		buf = AppendInode(buf, ent.Ino)
		buf = wire.AppendU8(buf, uint8(ent.Ftype))
	}
	buf = wire.AppendBool(buf, r.Dist)
	buf = wire.AppendI32(buf, r.Refs)
	buf = wire.AppendI32(buf, r.ExitStatus)
	buf = wire.AppendI64(buf, r.PID)
	buf = wire.AppendU64(buf, r.Epoch)
	return buf
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
	d := wire.NewDecoder(b)
	data, exts, ents := r.Data, r.Extents[:0], r.Ents[:0]
	*r = Response{}
	r.Err = fsapi.Errno(d.I32())
	r.Ino = DecodeInode(d)
	r.Server = d.I32()
	r.Ftype = fsapi.FileType(d.U8())
	r.Size = d.I64()
	r.Offset = d.I64()
	r.N = d.I64()
	r.Fd = FdID(d.U64())
	r.Extents = exts
	for n := d.Count(16); n > 0; n-- {
		r.Extents = append(r.Extents, Extent{Start: d.U64(), Count: d.U64()})
	}
	r.Version = d.U64()
	r.Data = d.BlobInto(data)
	r.Stat.Ino = DecodeInode(d)
	r.Stat.Ftype = fsapi.FileType(d.U8())
	r.Stat.Size = d.I64()
	r.Stat.Nlink = d.I32()
	r.Stat.Mode = fsapi.Mode(d.U16())
	r.Ents = ents
	if n := d.Count(direntWireSize); n > 0 {
		// Every name goes into one string, which the entries slice: a
		// listing costs one allocation, not one per name. The names take at
		// most what is left of the message past the entries' fixed parts.
		r.Ents = slices.Grow(r.Ents, n)
		var names strings.Builder
		names.Grow(d.Remaining() - n*direntWireSize)
		for ; n > 0; n-- {
			at := names.Len()
			names.Write(d.View())
			r.Ents = append(r.Ents, DirEntWire{Name: names.String()[at:], Ino: DecodeInode(d), Ftype: fsapi.FileType(d.U8())})
		}
	}
	r.Dist = d.Bool()
	r.Refs = d.I32()
	r.ExitStatus = d.I32()
	r.PID = d.I64()
	r.Epoch = d.U64()
	return d.Finish("proto: decoding response")
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
	return wire.AppendStr(AppendInode(buf, iv.Dir), iv.Name)
}

// UnmarshalInvalidation decodes an invalidation callback payload. Its Name
// is a view of b: the receiver drops its cached copy of the entry by it
// before it releases b, and keeps nothing.
func UnmarshalInvalidation(b []byte) (Invalidation, error) {
	d := wire.NewDecoder(b)
	d.Lend = true
	iv := Invalidation{Dir: DecodeInode(d), Name: d.Str()}
	return iv, d.Finish("proto: decoding invalidation")
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
