package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/wire"
)

// Chunked streaming GetContent — the "Media Objects in Time" shape:
// content travels as a sequence of bounded, time-ordered fragments
// instead of one monolithic ≤16 MB frame. Each chunk is an ordinary
// keyed request/response on the multiplexed connection, so fairness
// falls out of the existing pipelining (a small interactive call is
// never stuck behind more than one chunk's worth of video on the
// wire), the cluster router forwards chunks verbatim like any other
// keyed read, and the breaker/retry stack sees idempotent single-chunk
// calls it already knows how to handle.
//
// The codec is internal/wire, not gob: profiling the saturated
// transport showed gob's per-call decoder compilation — not syscalls —
// burning half the CPU on the content hot path (E32), and a fixed
// layout decodes with zero reflection and zero allocation beyond the
// strings.

// MethodGetContentStream is the chunked content wire op. It is keyed
// by ref (RequestKey) and idempotent per chunk.
const MethodGetContentStream = "db.GetContentStream"

// DefaultStreamChunkBytes is the chunk size clients request when the
// caller does not choose: large enough to amortize per-RPC overhead,
// small enough that a media object shares the connection fairly with
// interactive calls. 64 KB matches the batch writer's scratch class
// and, measured on the E32 reference host, keeps the p99 of 1 KB
// neighbours within 2x idle while an 8 MB object streams; at 256 KB a
// chunk occupied the wire for ~2 interactive round trips and the tail
// blew past that bound.
const DefaultStreamChunkBytes = 64 << 10

// MaxStreamChunkBytes caps what a client may request per chunk, so a
// greedy reader cannot turn the stream back into the monolithic frame
// this op exists to avoid.
const MaxStreamChunkBytes = 1 << 20

// ErrBadChunk marks a GetContentStream payload that failed to decode
// or a chunk sequence that broke its invariants (wrong offset,
// out-of-order index, total drifting mid-stream).
var ErrBadChunk = errors.New("transport: malformed content chunk")

// EncodeGetContentStream encodes one chunk request:
//
//	str ref | u64 offset | u32 maxBytes
func EncodeGetContentStream(ref string, offset uint64, maxBytes uint32) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(ref)+8+4)
	buf = wire.AppendString(buf, ref)
	buf = wire.AppendU64(buf, offset)
	return wire.AppendU32(buf, maxBytes)
}

// DecodeGetContentStream decodes a chunk request. The ref is a fresh
// string; nothing aliases the payload.
func DecodeGetContentStream(payload []byte) (ref string, offset uint64, maxBytes uint32, err error) {
	r := wire.NewReader(payload)
	ref, offset, maxBytes = r.Str(), r.U64(), r.U32()
	if err := r.Done(); err != nil {
		return "", 0, 0, fmt.Errorf("%w: stream request: %w", ErrBadChunk, err)
	}
	return ref, offset, maxBytes, nil
}

// ContentChunk is one decoded fragment of a streamed content object.
type ContentChunk struct {
	Ref      string
	Coding   string
	Index    uint32 // sequence number at the stream's chunk size
	Offset   uint64 // byte offset of Data within the object
	Total    uint64 // object size in bytes, constant across the stream
	Last     bool   // Offset+len(Data) == Total
	Keywords []string
	// Data is a view into the response payload, NOT a private copy:
	// with the pooled call API it is valid only until the response is
	// released. Copy (or consume) before releasing.
	Data []byte
}

// AppendContentChunk encodes a chunk onto buf:
//
//	str ref | str coding | u8 last (0 or 1) | u32 index | u64 offset |
//	u64 total | strs keywords | bytes data
//
// The ref leads, so RequestKey routes a PutContent request (a content
// record, i.e. a terminal chunk) by reading one string.
func AppendContentChunk(buf []byte, c *ContentChunk) []byte {
	buf = wire.AppendString(buf, c.Ref)
	buf = wire.AppendString(buf, c.Coding)
	last := byte(0)
	if c.Last {
		last = 1
	}
	buf = append(buf, last)
	buf = wire.AppendU32(buf, c.Index)
	buf = wire.AppendU64(buf, c.Offset)
	buf = wire.AppendU64(buf, c.Total)
	buf = wire.AppendStrings(buf, c.Keywords)
	return wire.AppendBytes(buf, c.Data)
}

// chunkSize bounds a chunk's encoding, so the encode buffer is
// allocated exactly once.
func chunkSize(c *ContentChunk) int {
	n := 4*binary.MaxVarintLen64 + len(c.Ref) + len(c.Coding) + 1 + 4 + 8 + 8 + len(c.Data)
	for _, kw := range c.Keywords {
		n += binary.MaxVarintLen64 + len(kw)
	}
	return n
}

// DecodeContentChunk decodes a chunk payload and checks that it lies
// within its object; Data aliases payload — see ContentChunk.Data.
func DecodeContentChunk(payload []byte) (*ContentChunk, error) {
	r := wire.NewReader(payload)
	c := &ContentChunk{}
	c.Ref = r.Str()
	c.Coding = r.Str()
	last := r.U8()
	c.Index = r.U32()
	c.Offset = r.U64()
	c.Total = r.U64()
	c.Keywords = r.Strs()
	c.Data = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadChunk, err)
	}
	if last > 1 {
		return nil, fmt.Errorf("%w: last flag %d", ErrBadChunk, last)
	}
	c.Last = last == 1
	n := uint64(len(c.Data))
	if c.Offset > c.Total || n > c.Total-c.Offset {
		return nil, fmt.Errorf("%w: %d bytes at offset %d overrun total %d", ErrBadChunk, n, c.Offset, c.Total)
	}
	if c.Last != (n == c.Total-c.Offset) {
		return nil, fmt.Errorf("%w: last flag inconsistent with offsets", ErrBadChunk)
	}
	return c, nil
}

// serveChunk answers GetContent and GetContentStream alike: the chunk
// of ref's content at offset, at most maxBytes long, encoded straight
// off the store's borrowed (zero-copy) record — the only copy between
// the store's bytes and the wire batch is the chunk encode. GetContent
// asks for everything from offset 0, which is a content record.
func serveChunk(store *mediastore.Store, sc obs.SpanContext, span, ref string, offset, maxBytes uint64) ([]byte, error) {
	sp := obs.SpanFromContext(span, "internal", sc)
	rec, err := store.GetContentBorrow(ref)
	sp.End(err)
	if err != nil {
		return nil, err
	}
	data := rec.Data
	total := uint64(len(data))
	if offset > uint64(len(data)) {
		return nil, fmt.Errorf("%w: offset %d beyond content %q of %d bytes", ErrBadChunk, offset, ref, total)
	}
	end := total
	if maxBytes < total-offset {
		end = offset + maxBytes
	}
	chunk := ContentChunk{
		Ref:    rec.Ref,
		Coding: rec.Coding,
		Index:  uint32(offset / maxBytes),
		Offset: offset,
		Total:  total,
		Last:   end == total,
		Data:   data[offset:end],
	}
	if chunk.Last {
		chunk.Keywords = rec.Keywords
	}
	return AppendContentChunk(make([]byte, 0, chunkSize(&chunk)), &chunk), nil
}

// GetContentStream fetches a content object as a sequence of bounded
// chunks, each an independent idempotent RPC that interleaves fairly
// with other calls on the connection. sink, when non-nil, receives
// each chunk's bytes in order as they arrive — the view is valid only
// during the callback (it may be backed by a pooled buffer).
//
// Retention: with a content cache attached, the object is assembled
// and admitted whole (assemble-then-admit: the cache never holds a
// partial object) and the shared record is returned — like GetContent,
// it must not be mutated. Without a cache, a nil sink assembles and
// returns a private record, while a non-nil sink streams WITHOUT
// retaining: the returned record carries ref, coding and keywords but
// nil Data. That keeps a pure consumer (a player draining an 8 MB
// clip) from allocating the whole object per pass — on a saturated
// host that garbage is exactly what shows up as p99 spikes in
// neighbouring interactive calls.
func (d DBClient) GetContentStream(ref string, sink func([]byte) error) (*mediastore.ContentRecord, error) {
	if d.ContentCache == nil {
		return d.streamContent(ref, sink, sink == nil)
	}
	streamed := false
	v, err := d.ContentCache.GetOrFill(ref, func() (any, int64, error) {
		streamed = true
		rec, err := d.streamContent(ref, sink, true)
		if err != nil {
			return nil, 0, err
		}
		return rec, int64(len(rec.Data)), nil
	})
	if err != nil {
		return nil, err
	}
	rec := v.(*mediastore.ContentRecord)
	if !streamed && sink != nil {
		// Cache hit (or a concurrent streamer won the singleflight):
		// replay chunk-sized views of the immutable cached bytes.
		for off := 0; ; off += DefaultStreamChunkBytes {
			end := off + DefaultStreamChunkBytes
			if end > len(rec.Data) {
				end = len(rec.Data)
			}
			if err := sink(rec.Data[off:end]); err != nil {
				return nil, err
			}
			if end == len(rec.Data) {
				break
			}
		}
	}
	return rec, nil
}

// streamContent is the chunk loop. retain assembles the object into
// rec.Data; otherwise the chunks only pass through sink and rec comes
// back metadata-only.
func (d DBClient) streamContent(ref string, sink func([]byte) error, retain bool) (*mediastore.ContentRecord, error) {
	rec := &mediastore.ContentRecord{Ref: ref}
	var buf []byte
	var off uint64
	var idx uint32
	var total uint64
	for {
		payload, rel, err := CallInTracePooled(d.C, d.Trace, MethodGetContentStream, EncodeGetContentStream(ref, off, DefaultStreamChunkBytes))
		if err != nil {
			return nil, err
		}
		ck, err := DecodeContentChunk(payload)
		if err == nil {
			err = checkChunk(ck, ref, off, idx, total)
		}
		if err != nil {
			if rel != nil {
				rel()
			}
			return nil, fmt.Errorf("content stream %q: %w", ref, err)
		}
		if idx == 0 {
			total = ck.Total
			if retain {
				buf = make([]byte, 0, ck.Total)
			}
		}
		if retain {
			buf = append(buf, ck.Data...)
		}
		if sink != nil {
			if err := sink(ck.Data); err != nil {
				if rel != nil {
					rel()
				}
				return nil, err
			}
		}
		rec.Coding = ck.Coding
		if ck.Keywords != nil {
			rec.Keywords = ck.Keywords
		}
		last := ck.Last
		off += uint64(len(ck.Data))
		idx++
		// The chunk (and its Data view of the response) is consumed:
		// recycle the response buffer before the next round trip.
		if rel != nil {
			rel()
		}
		if last {
			break
		}
	}
	rec.Data = buf
	return rec, nil
}

// checkChunk enforces the stream invariants on one received chunk:
// right object, sequential offset and index, stable total. total is 0
// before the first chunk (unknown); a zero-total first chunk is legal
// only for an empty tail.
func checkChunk(ck *ContentChunk, ref string, off uint64, idx uint32, total uint64) error {
	if ck.Ref != ref {
		return fmt.Errorf("%w: chunk for %q", ErrBadChunk, ck.Ref)
	}
	if ck.Offset != off {
		return fmt.Errorf("%w: chunk at offset %d, want %d", ErrBadChunk, ck.Offset, off)
	}
	if ck.Index != idx {
		return fmt.Errorf("%w: chunk index %d, want %d", ErrBadChunk, ck.Index, idx)
	}
	if idx > 0 && ck.Total != total {
		return fmt.Errorf("%w: total changed mid-stream (%d -> %d; content republished?)", ErrBadChunk, total, ck.Total)
	}
	return nil
}
