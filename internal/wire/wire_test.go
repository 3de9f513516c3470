package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestReaderRoundTrip: every field the append helpers write reads back
// in order, and the payload is consumed exactly.
func TestReaderRoundTrip(t *testing.T) {
	buf := append([]byte(nil), 7)
	buf = AppendU32(buf, 0xdeadbeef)
	buf = AppendU64(buf, math.MaxUint64)
	buf = AppendVarint(buf, -3)
	buf = AppendUvarint(buf, 2) // a count
	buf = AppendBytes(buf, []byte("data"))
	buf = AppendString(buf, "")
	buf = AppendStrings(buf, []string{"a", "bc"})

	r := NewReader(buf)
	if r.U8() != 7 || r.U32() != 0xdeadbeef || r.U64() != math.MaxUint64 || r.Varint() != -3 || r.Count(2) != 2 {
		t.Fatal("fixed fields or count mangled")
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte("data")) || cap(b) != len(b) {
		t.Fatalf("bytes = %q (cap %d)", b, cap(b))
	}
	if s := r.Str(); s != "" {
		t.Fatalf("empty string read as %q", s)
	}
	if ss := r.Strs(); len(ss) != 2 || ss[0] != "a" || ss[1] != "bc" {
		t.Fatalf("strings = %q", ss)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: truncation, overlong varints, counts the payload
// cannot hold and trailing bytes all latch ErrMalformed, after which
// every read is zero.
func TestReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(*Reader)
	}{
		{"truncated u64", []byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		{"overlong length", []byte{0x81, 0x00, 'x'}, func(r *Reader) { r.Bytes() }},
		{"overlong zero", []byte{0x80, 0x00}, func(r *Reader) { r.Varint() }},
		{"length past the end", []byte{3, 'a', 'b'}, func(r *Reader) { r.Str() }},
		{"count past the end", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.U8() }},
	} {
		r := NewReader(tc.payload)
		tc.read(&r)
		if err := r.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, err)
		}
		if r.U64() != 0 || r.Str() != "" || r.Strs() != nil {
			t.Errorf("%s: reads after failure are not zero", tc.name)
		}
	}
}

// TestReaderDecodeAllocs: fixed fields, varints and byte views decode
// without allocating, including the shortest-form check.
func TestReaderDecodeAllocs(t *testing.T) {
	buf := AppendU64(nil, 1)
	buf = AppendVarint(buf, math.MinInt64)
	buf = AppendBytes(buf, make([]byte, 300))
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(buf)
		r.U64()
		r.Varint()
		r.Bytes()
		if r.Done() != nil {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("decode allocated %.0f times per run", allocs)
	}
}
