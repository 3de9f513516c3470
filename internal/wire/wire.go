// Package wire is the one binary payload codec of the MITS services:
// the courseware-database calls, their chunked content stream and the
// span-export batches all encode through its append helpers and decode
// through its Reader.
//
// The layout is fixed by the field order each payload documents, with
// no tags or type descriptors: fixed-width integers are little-endian,
// signed integers are zig-zag varints, and every length or element
// count is a uvarint. The Reader accepts only the shortest uvarint
// form, so any payload it accepts re-encodes to the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrMalformed is the error a Reader latches on truncated, oversized
// or non-canonical input.
var ErrMalformed = errors.New("wire: malformed payload")

// AppendU32 appends v as 4 little-endian bytes.
func AppendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// AppendUvarint appends v as a uvarint (lengths and counts).
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

// AppendBytes appends b behind its uvarint length.
func AppendBytes(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// AppendString appends s behind its uvarint length.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendStrings appends a uvarint count, then each string.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// Reader decodes a payload front to back. The first malformed field
// latches ErrMalformed and every later read returns a zero value, so a
// decoder reads all its fields and checks Done once at the end.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a Reader over data. Bytes returns views of data;
// every other read copies.
func NewReader(data []byte) Reader { return Reader{data: data} }

func (r *Reader) fail() {
	r.err = ErrMalformed
	r.data = nil
}

// take consumes the next n bytes, capacity-capped so an append to the
// view cannot overwrite what follows.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.data)) {
		r.fail()
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// zeros stands in for a fixed-width field once the Reader has failed.
var zeros [8]byte

// fixed consumes an n-byte field, n <= 8.
func (r *Reader) fixed(n int) []byte {
	if b := r.take(uint64(n)); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 reads one byte.
func (r *Reader) U8() byte { return r.fixed(1)[0] }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// uvarint reads a uvarint, rejecting overlong forms: a final byte of
// zero after the first means the value fits in fewer bytes.
func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 || (n > 1 && r.data[n-1] == 0) { //mits:allow boundscheck Uvarint consumed n <= len(r.data) bytes
		r.fail()
		return 0
	}
	r.data = r.data[n:] //mits:allow boundscheck Uvarint consumed n <= len(r.data) bytes
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Count reads an element count and fails unless that many elements of
// at least minSize bytes each fit in what is left, so the caller may
// allocate count elements without trusting the payload.
func (r *Reader) Count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.data)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string as a view of the payload;
// an empty one reads as nil.
func (r *Reader) Bytes() []byte {
	if b := r.take(r.uvarint()); len(b) > 0 {
		return b
	}
	return nil
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Strs reads a counted string list; an empty one reads as nil.
func (r *Reader) Strs() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or ErrMalformed when bytes remain
// unread: a payload is exactly its fields.
func (r *Reader) Done() error {
	if r.err == nil && len(r.data) > 0 {
		r.fail()
	}
	return r.err
}
