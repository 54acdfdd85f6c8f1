// Package wire is the field codec of every format that crosses a boundary:
// RPC messages (proto), log frames and checkpoints (wal), replication ships
// (repl) and placement maps (place). A format is a sequence of fields, each
// appended by an Append function and read back, in the same order, by the
// Decoder method of the same name (DESIGN.md §2, "Wire conventions"):
//
//   - integers are little-endian and fixed-width; a bool is one byte;
//   - a string, a blob or a list is a u32 count followed by its bytes or
//     elements; an empty blob decodes as nil;
//   - a field the input ends before is an error (ErrTruncated), which every
//     later field keeps, and a count the rest of the input could not hold
//     fails the same way before it sizes anything.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// ErrTruncated is returned when the input ends before a field could be
// decoded, or holds less than a list's count says it carries.
var ErrTruncated = errors.New("wire: truncated field")

// The Append functions encode one field each onto b and return the extended
// slice, like the standard library's Append functions: b stays the caller's,
// so a buffer on the caller's stack or from its pool is never moved to the
// heap by being encoded into, and each call inlines. (Methods of an encoder
// struct would store the buffer through a pointer, which escape analysis
// sends to the heap; the replication plane's acks are encoded into an array
// on the server's stack.)

func AppendU8(b []byte, v uint8) []byte   { return append(b, v) }
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func AppendI32(b []byte, v int32) []byte  { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
func AppendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

func AppendBlob(b, v []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(v))), v...)
}

func AppendStrSlice(b []byte, ss []string) []byte {
	b = AppendU32(b, uint32(len(ss)))
	for _, s := range ss {
		b = AppendStr(b, s)
	}
	return b
}

func AppendU64Slice(b []byte, vs []uint64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendU64(b, v)
	}
	return b
}

// Patch32 sets the u32 at b[at:], appended as 0, to the number of bytes
// behind it: a length-prefixed field encoded in place, in the buffer that
// travels, instead of being marshaled apart and copied in.
func Patch32(b []byte, at int) { PutU32(b[at:], uint32(len(b)-at-4)) }

// PutU32 writes v at the start of b, for a header filled in after the body
// behind it was encoded.
func PutU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// U32 reads the word PutU32 wrote.
func U32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// Decoder reads fields back in the order they were encoded. After the first
// failure every field reads as zero and Err reports it.
type Decoder struct {
	buf []byte
	off int
	err error
	// Lend makes Str and Blob return views of the input instead of copies.
	// The input's owner leaves it alone for as long as they are read, and
	// whoever keeps one copies it (DESIGN.md §13).
	Lend bool
}

func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Fail ends the decode with err, unless an earlier failure already did.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return false
	}
	return true
}

func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *Decoder) U16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *Decoder) I32() int32 { return int32(d.U32()) }
func (d *Decoder) I64() int64 { return int64(d.U64()) }

func (d *Decoder) Bool() bool { return d.U8() != 0 }

func (d *Decoder) Str() string {
	n := int(d.U32())
	if n == 0 || !d.need(n) {
		return ""
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	if d.Lend {
		return unsafe.String(&b[0], n)
	}
	return string(b)
}

// Blob returns a byte field, nil when it is empty; a copy unless the
// decoder lends, and then a view whose capacity ends with the field.
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	if n == 0 || !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	if d.Lend {
		return b
	}
	return append([]byte(nil), b...)
}

// BlobInto decodes a byte field into dst's capacity (dst is overwritten from
// its start) and returns it: an empty field gives dst[:0], which is nil when
// dst is. The result never aliases the input.
func (d *Decoder) BlobInto(dst []byte) []byte {
	n := int(d.U32())
	if !d.need(n) {
		return dst[:0]
	}
	dst = append(dst[:0], d.buf[d.off:d.off+n]...)
	d.off += n
	return dst
}

// View returns a byte field as a subslice of the input, lending or not, for
// a nested message that is decoded before the input is released.
func (d *Decoder) View() []byte {
	n := int(d.U32())
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Count decodes the length of a list whose elements take at least elemSize
// bytes each, and fails on one the rest of the input cannot hold: a hostile
// count must not size an allocation.
func (d *Decoder) Count(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n > (len(d.buf)-d.off)/elemSize {
		d.err = ErrTruncated
		return 0
	}
	return n
}

func (d *Decoder) StrSlice() []string {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Str())
	}
	return out
}

// U64Slice decodes a list into dst's capacity (dst is overwritten from its
// start); an empty list gives dst[:0], which is nil when dst is.
func (d *Decoder) U64Slice(dst []uint64) []uint64 {
	n := d.Count(8)
	dst = dst[:0]
	if cap(dst) < n {
		dst = make([]uint64, 0, n)
	}
	for ; n > 0; n-- {
		dst = append(dst, d.U64())
	}
	return dst
}

// Remaining reports how many undecoded bytes are left (none after a
// failure): an optional trailing field is present when its bytes are.
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.buf) - d.off
}

func (d *Decoder) Err() error { return d.err }

// Finish returns the decode's failure, if any, wrapped with what was being
// decoded ("proto: decoding request").
func (d *Decoder) Finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("%s: %w", what, d.err)
	}
	return nil
}
