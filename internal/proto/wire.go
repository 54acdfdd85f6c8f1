package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// ErrTruncated is returned when a message payload ends before a field could
// be decoded.
var ErrTruncated = errors.New("proto: truncated message")

// encoder appends fields to a byte slice in a compact little-endian format.
type encoder struct {
	buf []byte
}

func newEncoder(sizeHint int) *encoder {
	return &encoder{buf: make([]byte, 0, sizeHint)}
}

func (e *encoder) bytes() []byte { return e.buf }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }

func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) blob(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) strSlice(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// reserve32 appends a length word to be filled in later and returns the
// position just behind it; patch32 sets that word to the number of bytes
// appended since. Together they frame a field that is encoded in place, in
// the buffer that travels, instead of being marshaled apart and copied in.
func (e *encoder) reserve32() int {
	e.buf = append(e.buf, 0, 0, 0, 0)
	return len(e.buf)
}

func (e *encoder) patch32(mark int) {
	binary.LittleEndian.PutUint32(e.buf[mark-4:], uint32(len(e.buf)-mark))
}

func (e *encoder) inode(id InodeID) {
	e.i32(id.Server)
	e.u64(id.Local)
}

// decoder reads fields back in the order they were encoded.
type decoder struct {
	buf []byte
	off int
	err error
	// lend makes str return views of buf instead of copies (batch.go,
	// UnmarshalBatchLent).
	lend bool
}

func newDecoder(b []byte) *decoder { return &decoder{buf: b} }

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.fail()
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }
func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) boolean() bool { return d.u8() != 0 }

func (d *decoder) str() string {
	n := int(d.u32())
	if n == 0 || !d.need(n) {
		return ""
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	if d.lend {
		// A string that shares memory with the buffer it was decoded from:
		// the buffer's owner leaves it alone until the string is dead, and
		// whoever keeps the string clones it (DESIGN.md §13).
		return unsafe.String(&b[0], n)
	}
	return string(b)
}

func (d *decoder) blob() []byte {
	n := int(d.u32())
	if n == 0 || !d.need(n) {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

// blobInto decodes a byte field into dst's capacity (dst is overwritten from
// its start) and returns it: an empty field gives dst[:0], which is nil when
// dst is. The result never aliases the input.
func (d *decoder) blobInto(dst []byte) []byte {
	n := int(d.u32())
	if !d.need(n) {
		return dst[:0]
	}
	dst = append(dst[:0], d.buf[d.off:d.off+n]...)
	d.off += n
	return dst
}

// view returns a length-prefixed field as a subslice of the input, for a
// nested message that is decoded before the input is released.
func (d *decoder) view() []byte {
	n := int(d.u32())
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// count decodes the length of a list whose elements take at least elemSize
// bytes each, and fails on one the rest of the message cannot hold: a
// hostile count must not size an allocation.
func (d *decoder) count(elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n > (len(d.buf)-d.off)/elemSize {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) strSlice() []string {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) inode() InodeID {
	s := d.i32()
	l := d.u64()
	return InodeID{Server: s, Local: l}
}

// remaining reports how many undecoded bytes are left; used for optional
// trailing fields (a zero trace context is simply not encoded, keeping
// untraced messages byte-identical to the pre-tracing format).
func (d *decoder) remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.buf) - d.off
}

func (d *decoder) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("proto: decoding %s: %w", what, d.err)
	}
	return nil
}
