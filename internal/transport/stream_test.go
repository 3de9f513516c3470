package transport

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"mits/internal/cache"
	"mits/internal/mediastore"
)

// streamStore builds a store whose content spans several default-size
// chunks, so the chunk loop actually loops.
func streamStore(t *testing.T, size int) *mediastore.Store {
	t.Helper()
	s := mediastore.New()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.PutContent("store/big.mpg", "MPEG", data, "video", "atm/demo"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestContentChunkCodecRoundTrip pins the chunk layout:
// every field survives encode/decode, with and without keywords.
func TestContentChunkCodecRoundTrip(t *testing.T) {
	for _, c := range []*ContentChunk{
		{Ref: "store/v.mpg", Coding: "MPEG", Index: 0, Offset: 0, Total: 7, Data: []byte("0123456"), Last: true, Keywords: []string{"video", "atm"}},
		{Ref: "store/v.mpg", Coding: "MPEG", Index: 2, Offset: 512, Total: 1024, Data: bytes.Repeat([]byte("x"), 256)},
		{Ref: "r", Coding: "", Index: 0, Offset: 0, Total: 0, Last: true}, // zero-length terminal chunk
	} {
		got, err := DecodeContentChunk(AppendContentChunk(nil, c))
		if err != nil {
			t.Fatalf("decode %q: %v", c.Ref, err)
		}
		if got.Ref != c.Ref || got.Coding != c.Coding || got.Index != c.Index ||
			got.Offset != c.Offset || got.Total != c.Total || got.Last != c.Last ||
			!bytes.Equal(got.Data, c.Data) || len(got.Keywords) != len(c.Keywords) {
			t.Fatalf("round trip mangled chunk:\n%+v\n%+v", c, got)
		}
	}
}

// TestContentChunkDecodeRejectsMalformed walks the truncation grid and
// the invariant violations a hostile or corrupted peer could send.
func TestContentChunkDecodeRejectsMalformed(t *testing.T) {
	good := AppendContentChunk(nil, &ContentChunk{
		Ref: "store/v.mpg", Coding: "MPEG", Offset: 0, Total: 5,
		Data: []byte("01234"), Last: true, Keywords: []string{"k"},
	})
	if _, err := DecodeContentChunk(good); err != nil {
		t.Fatalf("control chunk rejected: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := DecodeContentChunk(good[:n]); err == nil {
			t.Fatalf("truncated chunk of %d/%d bytes decoded", n, len(good))
		}
	}
	// Trailing bytes after the data.
	if _, err := DecodeContentChunk(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatal("chunk with trailing bytes decoded")
	}
	// Data running past Total.
	bad := AppendContentChunk(nil, &ContentChunk{Ref: "r", Total: 10, Offset: 8, Data: []byte("abc"), Last: false})
	if _, err := DecodeContentChunk(bad); err == nil {
		t.Fatal("chunk overrunning its total decoded")
	}
	// Offset+len(Data) wrapping past 2^64 into Total.
	if _, err := DecodeContentChunk(overflowChunk()); err == nil {
		t.Fatal("chunk whose end overflows decoded")
	}
	// Last flag inconsistent with offsets.
	bad2 := AppendContentChunk(nil, &ContentChunk{Ref: "r", Total: 10, Offset: 0, Data: []byte("abc"), Last: true})
	if _, err := DecodeContentChunk(bad2); err == nil {
		t.Fatal("mis-flagged terminal chunk decoded")
	}
}

// TestGetContentStreamAssembles runs the real chunk loop over a
// loopback server: a 3-chunk object arrives in order, the sink sees
// sequential fragments, and the retention contract holds — a nil sink
// assembles the record, a pure consumer gets metadata only.
func TestGetContentStreamAssembles(t *testing.T) {
	const size = 2*DefaultStreamChunkBytes + 100 // 3 chunks, short tail
	store := streamStore(t, size)
	mux := NewMux()
	RegisterStore(mux, store)
	db := DBClient{C: Loopback{H: mux}}
	want, err := store.GetContent("store/big.mpg")
	if err != nil {
		t.Fatal(err)
	}

	var seen []int
	var got []byte
	rec, err := db.GetContentStream("store/big.mpg", func(p []byte) error {
		seen = append(seen, len(p))
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Data) {
		t.Fatal("streamed bytes differ from the stored object")
	}
	if rec.Data != nil {
		t.Fatalf("sink-only stream retained %d bytes, want none", len(rec.Data))
	}
	if rec.Coding != "MPEG" || len(rec.Keywords) != 2 {
		t.Fatalf("stream dropped metadata: coding=%q keywords=%v", rec.Coding, rec.Keywords)
	}
	if len(seen) != 3 || seen[0] != DefaultStreamChunkBytes || seen[2] != 100 {
		t.Fatalf("chunk sizes %v, want [%d %d 100]", seen, DefaultStreamChunkBytes, DefaultStreamChunkBytes)
	}

	assembled, err := db.GetContentStream("store/big.mpg", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(assembled.Data, want.Data) {
		t.Fatal("nil-sink stream did not assemble the object")
	}
}

// TestGetContentStreamCacheAssembleThenAdmit: the first stream fills
// the cache with the whole object (never a partial), the second is
// served locally — zero upstream chunks — and still replays
// chunk-sized views to its sink. GetContent shares the same entry.
func TestGetContentStreamCacheAssembleThenAdmit(t *testing.T) {
	const size = DefaultStreamChunkBytes + 50
	store := streamStore(t, size)
	mux := NewMux()
	RegisterStore(mux, store)
	var upstream atomic.Int64
	counted := HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		if method == MethodGetContentStream {
			upstream.Add(1)
		}
		return mux.Handle(method, payload)
	})
	db := DBClient{C: Loopback{H: counted}}.WithContentCache(cache.New("t-stream-db", 1<<22))

	first, err := db.GetContentStream("store/big.mpg", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := upstream.Load(); n != 2 {
		t.Fatalf("first stream issued %d chunk calls, want 2", n)
	}

	var replayed []int
	second, err := db.GetContentStream("store/big.mpg", func(p []byte) error {
		replayed = append(replayed, len(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := upstream.Load(); n != 2 {
		t.Fatalf("cache hit went upstream (%d chunk calls total)", n)
	}
	if len(replayed) != 2 || replayed[0] != DefaultStreamChunkBytes || replayed[1] != 50 {
		t.Fatalf("hit replayed chunk sizes %v", replayed)
	}
	if &first.Data[0] != &second.Data[0] {
		t.Fatal("cache hit did not share the assembled record")
	}
	viaGet, err := db.GetContent("store/big.mpg")
	if err != nil {
		t.Fatal(err)
	}
	if &viaGet.Data[0] != &first.Data[0] {
		t.Fatal("GetContent missed the stream-admitted cache entry")
	}
}

// TestGetContentStreamChecksInvariants: a server answering with the
// wrong offset (a republish race, a buggy proxy) is caught by the
// client's sequence checks, not silently assembled into garbage.
func TestGetContentStreamChecksInvariants(t *testing.T) {
	store := streamStore(t, 3*DefaultStreamChunkBytes)
	mux := NewMux()
	RegisterStore(mux, store)
	evil := HandlerFunc(func(method string, payload []byte) ([]byte, error) {
		out, err := mux.Handle(method, payload)
		if err != nil || method != MethodGetContentStream {
			return out, err
		}
		ck, derr := DecodeContentChunk(out)
		if derr != nil {
			return nil, derr
		}
		if ck.Index == 1 { // corrupt the middle chunk's offset
			ck.Offset += 7
			ck.Index = 2
			return AppendContentChunk(nil, ck), nil
		}
		return out, nil
	})
	db := DBClient{C: Loopback{H: evil}}
	if _, err := db.GetContentStream("store/big.mpg", nil); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("mis-sequenced stream returned %v, want ErrBadChunk", err)
	}
}

// TestGetContentStreamNotFound keeps error semantics aligned with
// GetContent: a dangling ref fails with the remote error, and a
// failed stream is not admitted to the cache.
func TestGetContentStreamNotFound(t *testing.T) {
	store := streamStore(t, 10)
	mux := NewMux()
	RegisterStore(mux, store)
	db := DBClient{C: Loopback{H: mux}}.WithContentCache(cache.New("t-stream-miss", 1<<20))
	if _, err := db.GetContentStream("store/nope", nil); err == nil {
		t.Fatal("stream of a dangling ref succeeded")
	}
	// The ref must stay fetchable once published (no cached error).
	if err := store.PutContent("store/nope", "MPEG", []byte("now-here")); err != nil {
		t.Fatal(err)
	}
	rec, err := db.GetContentStream("store/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Data) != "now-here" {
		t.Fatalf("post-publish stream returned %q", rec.Data)
	}
}
