package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestFieldsRoundTrip encodes one field of each kind and reads them back in
// order, copying and lending.
func TestFieldsRoundTrip(t *testing.T) {
	b := AppendU8([]byte("prefix"), 0xab)[len("prefix"):]
	b = AppendU16(b, 0xcdef)
	b = AppendI32(b, -2)
	b = AppendI64(b, -3)
	b = AppendBool(b, true)
	b = AppendStr(b, "name")
	blobAt := len(b) + 4
	b = AppendBlob(b, []byte{1, 2})
	b = AppendBlob(b, nil)
	b = AppendStrSlice(b, []string{"a", ""})
	b = AppendU64Slice(b, []uint64{7, 1 << 60})
	at := len(b)
	b = AppendStr(AppendU32(b, 0), "nested")
	Patch32(b, at)

	for _, lend := range []bool{false, true} {
		d := NewDecoder(b)
		d.Lend = lend
		if d.U8() != 0xab || d.U16() != 0xcdef || d.I32() != -2 || d.I64() != -3 || !d.Bool() || d.Str() != "name" {
			t.Fatalf("lend %v: fixed fields or name misread", lend)
		}
		blob := d.Blob()
		if !bytes.Equal(blob, []byte{1, 2}) || (&blob[0] == &b[blobAt]) != lend || lend && cap(blob) != 2 {
			t.Fatalf("lend %v: blob %v at %p (cap %d), input's at %p", lend, blob, blob, cap(blob), &b[blobAt])
		}
		if d.Blob() != nil {
			t.Fatalf("lend %v: an empty blob decoded non-nil", lend)
		}
		if ss := d.StrSlice(); len(ss) != 2 || ss[0] != "a" || ss[1] != "" {
			t.Fatalf("lend %v: strings %q", lend, ss)
		}
		if vs := d.U64Slice(make([]uint64, 5)); len(vs) != 2 || vs[0] != 7 || vs[1] != 1<<60 {
			t.Fatalf("lend %v: list %v", lend, vs)
		}
		if nested := d.View(); string(nested) != "\x06\x00\x00\x00nested" {
			t.Fatalf("lend %v: patched field %q", lend, nested)
		}
		if d.Remaining() != 0 || d.Finish("test") != nil {
			t.Fatalf("lend %v: %d bytes left, err %v", lend, d.Remaining(), d.Err())
		}
	}
}

// TestTruncationSticks: a field the input ends before fails the decode, every
// later field reads as zero, and a count the rest could not hold fails before
// it sizes anything.
func TestTruncationSticks(t *testing.T) {
	d := NewDecoder(AppendU32(nil, 9))
	if d.U64() != 0 || d.U32() != 0 || !errors.Is(d.Finish("short"), ErrTruncated) {
		t.Fatalf("a 4-byte input read a u64: err %v", d.Err())
	}
	for _, list := range []func(*Decoder) int{
		func(d *Decoder) int { return d.Count(12) },
		func(d *Decoder) int { return len(d.StrSlice()) },
		func(d *Decoder) int { return len(d.U64Slice(nil)) },
	} {
		d := NewDecoder(append(AppendU32(nil, 1<<32-1), make([]byte, 64)...))
		if n := list(d); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("a count of 2^32-1 over 64 bytes gave %d elements, err %v", n, d.Err())
		}
	}
	d = NewDecoder(AppendU8(nil, 1))
	d.Fail(errors.New("first"))
	if d.U8() != 0 || d.Err().Error() != "first" || d.Remaining() != 0 {
		t.Fatalf("a failed decode read on: err %v", d.Err())
	}
}
