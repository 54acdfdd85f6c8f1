package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/proto"
)

// ErrTruncated is returned when a record or checkpoint body ends before a
// field could be decoded.
var ErrTruncated = errors.New("wal: truncated body")

var (
	errUnknownType = errors.New("unknown record type")
	errTrailing    = errors.New("bytes after the record's fields")
)

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }

// enc appends fields to a byte slice in a compact little-endian format
// (same wire conventions as the proto package, kept private to each).
type enc struct {
	buf []byte
}

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }

func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) blob(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *enc) u64Slice(vs []uint64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.u64(v)
	}
}

func (e *enc) inode(id proto.InodeID) {
	e.i32(id.Server)
	e.u64(id.Local)
}

// dec reads fields back in the order they were encoded. With inPlace set,
// names and byte fields are returned where they lie in buf instead of being
// copied out of it (DecodeRecordsInto).
type dec struct {
	buf     []byte
	off     int
	err     error
	inPlace bool
}

func newDec(b []byte) *dec { return &dec{buf: b} }

// fail records err unless an earlier error already ended the decode.
func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }
func (d *dec) i32() int32 { return int32(d.u32()) }

func (d *dec) boolean() bool { return d.u8() != 0 }

func (d *dec) str() string {
	n := int(d.u32())
	if n == 0 || !d.need(n) {
		return ""
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	if d.inPlace {
		// The one string in the repository that shares memory with a byte
		// slice. It is a lookup key for as long as buf is left alone, and
		// ReleaseRecords drops it before buf changes; who keeps a name
		// clones it.
		return unsafe.String(&b[0], n)
	}
	return string(b)
}

func (d *dec) blob() []byte {
	n := int(d.u32())
	if n == 0 || !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	if d.inPlace {
		return b
	}
	return append([]byte(nil), b...)
}

// u64Slice decodes a list into dst's capacity (dst is overwritten from its
// start); an empty list gives dst[:0], which is nil when dst is. A count the
// rest of the body cannot hold fails the decode: a hostile count must not
// size an allocation.
func (d *dec) u64Slice(dst []uint64) []uint64 {
	n := int(d.u32())
	dst = dst[:0]
	if d.err != nil {
		return dst
	}
	if n > (len(d.buf)-d.off)/8 {
		d.err = ErrTruncated
		return dst
	}
	if cap(dst) < n {
		dst = make([]uint64, 0, n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, d.u64())
	}
	return dst
}

func (d *dec) inode() proto.InodeID {
	s := d.i32()
	l := d.u64()
	return proto.InodeID{Server: s, Local: l}
}

func (d *dec) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("wal: decoding %s: %w", what, d.err)
	}
	return nil
}
