package collect

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWireDecode hammers the batch wire decoder with hostile payloads:
// decodeBatch must never panic or over-allocate on corrupt input, and
// anything it accepts must re-encode to the exact input bytes and
// decode again unchanged — the exporter on the far site will only ever
// see the re-encoded form. Seeds cover the honest shapes (empty batch,
// mixed spans with shared interned strings, zig-zag-negative
// timestamps) and the documented rejection paths (empty payload,
// unknown version, truncated span, absurd span count); the checked-in
// corpus under testdata/fuzz/FuzzWireDecode replays on every plain
// `go test` run.
func FuzzWireDecode(f *testing.F) {
	for _, b := range []Batch{
		{Site: "edge-a"},
		{Site: "core", Spans: []SpanRecord{
			{Trace: 0xdeadbeef, ID: 1, Name: "GetDoc", Kind: "server", Site: "core", StartNS: 1000, DurNS: 250},
			{Trace: 0xdeadbeef, ID: 2, Parent: 1, Name: "db.GetContent", Kind: "client", Site: "core", StartNS: 1100, DurNS: 90, Err: "store: not found"},
			{Trace: 0xdeadbeef, ID: 3, Parent: 1, Name: "GetDoc", Kind: "server", Site: "core", StartNS: -7, DurNS: 1},
		}},
	} {
		enc := appendBatch(nil, b)
		f.Add(enc)
		if len(enc) > 2 {
			f.Add(enc[:len(enc)-2]) // truncated mid-span
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01})                           // unknown version
	f.Add([]byte{wireV1, 0, 0xff, 0xff, 0xff, 0xff, 7}) // absurd span count
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBatch(data)
		if err != nil {
			return
		}
		if len(b.Spans) > len(data)/minWireSpan {
			t.Fatalf("decode accepted %d spans from %d bytes", len(b.Spans), len(data))
		}
		enc := appendBatch(nil, b)
		if !bytes.Equal(enc, data) {
			t.Fatalf("round trip changed bytes: %x -> %x", data, enc)
		}
		b2, err := decodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted batch: %v", err)
		}
		if b2.Spans == nil && b.Spans != nil && len(b.Spans) == 0 {
			b2.Spans = []SpanRecord{} // len-0 slice vs nil is not a wire difference
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("round trip changed batch:\n%+v\n%+v", b, b2)
		}
	})
}
