package collect

import (
	"fmt"

	"mits/internal/wire"
)

// The obs.Export payload is the internal/wire encoding rather than
// gob: both ends live in this repo, batches flow continuously on every
// node, and gob pays a per-message type-descriptor compile on each
// decode (a new Decoder per RPC payload) that showed up as the
// dominant export cost under profile — on a small host that CPU comes
// straight out of delivery throughput. Layout:
//
//	u8  version (wireV1)
//	str site
//	uv  span count
//	per span: u64 trace, u64 id, u64 parent, varint startNS,
//	          varint durNS, str name, str kind, str site, str err
const wireV1 = 1

// minWireSpan is the smallest encoded span (three u64s, two one-byte
// varints, four empty strings): a span count is bounded by the bytes
// left at this size before the span slice is allocated.
const minWireSpan = 3*8 + 2 + 4

// appendBatch encodes b onto buf and returns the extended slice — the
// reuse form the exporter ships with, so a steady span stream does not
// churn a fresh encode buffer per chunk.
func appendBatch(buf []byte, b Batch) []byte {
	buf = append(buf, wireV1)
	buf = wire.AppendString(buf, b.Site)
	buf = wire.AppendUvarint(buf, uint64(len(b.Spans)))
	for i := range b.Spans {
		s := &b.Spans[i]
		buf = wire.AppendU64(buf, s.Trace)
		buf = wire.AppendU64(buf, s.ID)
		buf = wire.AppendU64(buf, s.Parent)
		buf = wire.AppendVarint(buf, s.StartNS)
		buf = wire.AppendVarint(buf, s.DurNS)
		buf = wire.AppendString(buf, s.Name)
		buf = wire.AppendString(buf, s.Kind)
		buf = wire.AppendString(buf, s.Site)
		buf = wire.AppendString(buf, s.Err)
	}
	return buf
}

// interner dedupes decoded strings within one payload: a batch carries
// the same handful of Name/Kind/Site values over and over, and giving
// every span its own copy is pure GC scan weight on the collector's
// pending heap.
type interner map[string]string

func (in interner) str(r *wire.Reader) string {
	raw := r.Bytes()
	if len(raw) == 0 {
		return ""
	}
	// The map[string] lookup with a string([]byte) key does not
	// allocate (compiler-recognized idiom); only first-seen values pay
	// the copy.
	if s, ok := in[string(raw)]; ok {
		return s
	}
	s := string(raw)
	in[s] = s
	return s
}

func decodeBatch(data []byte) (Batch, error) {
	var b Batch
	if len(data) < 1 {
		return b, fmt.Errorf("collect: empty batch payload")
	}
	if data[0] != wireV1 {
		return b, fmt.Errorf("collect: unknown batch wire version %d", data[0])
	}
	r := wire.NewReader(data[1:])
	in := make(interner, 8)
	b.Site = in.str(&r)
	b.Spans = make([]SpanRecord, r.Count(minWireSpan))
	for i := range b.Spans {
		s := &b.Spans[i]
		s.Trace = r.U64()
		s.ID = r.U64()
		s.Parent = r.U64()
		s.StartNS = r.Varint()
		s.DurNS = r.Varint()
		s.Name = in.str(&r)
		s.Kind = in.str(&r)
		s.Site = in.str(&r)
		s.Err = in.str(&r)
	}
	if err := r.Done(); err != nil {
		return Batch{}, fmt.Errorf("collect: batch payload: %w", err)
	}
	return b, nil
}
