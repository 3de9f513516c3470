package transport

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"mits/internal/mediastore"
	"mits/internal/wire"
)

// FuzzFrameDecode throws arbitrary bytes at the frame decoder. The
// seeds cover both kinds, traced and untraced, error responses and
// GetContentStream traffic, plus an empty input, a header cut short
// and a well-formed header under a retired kind byte. Anything that
// decodes must survive a marshal/unmarshal round trip unchanged.
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range []*frame{
		{kind: kindRequest, id: 1, method: "GetDoc", payload: []byte("atm-course")},
		{kind: kindResponse, id: 1, payload: []byte{1, 2, 3}},
		{kind: kindResponse, id: 7, errText: "transport: unknown method"},
		{kind: kindRequest, id: 9, trace: 0xdeadbeef, span: 0x42, method: "Search", payload: []byte("broadband")},
		{kind: kindResponse, id: 9, trace: 0xdeadbeef, span: 0x43},
		{kind: kindRequest, id: 11, method: "db.GetContent", payload: []byte("store/v.mpg")},
		{kind: kindRequest, id: 12, trace: 0xfeed, span: 0x7, method: "db.GetContent"},
		{kind: kindResponse, id: 12, trace: 0xfeed, span: 0x7, payload: []byte{9}},
		{kind: kindResponse, id: 13, trace: 0xfeed, span: 0x8, errText: "transport: unknown method"},
		// GetContentStream traffic: a chunk request and chunk responses,
		// including the shapes the stream checks exist for — one
		// truncated mid-chunk, one with an out-of-order index, one
		// zero-length terminal chunk.
		{kind: kindRequest, id: 14, method: MethodGetContentStream, payload: EncodeGetContentStream("store/v.mpg", 0, 262144)},
		{kind: kindResponse, id: 14, payload: AppendContentChunk(nil, &ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 8, Data: []byte("01234567"), Last: true, Keywords: []string{"video"}})},
		{kind: kindResponse, id: 15, payload: AppendContentChunk(nil, &ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 1, Data: []byte("partial")})[:20]},
		{kind: kindResponse, id: 16, payload: AppendContentChunk(nil, &ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 7, Data: []byte("ooo")})},
		{kind: kindResponse, id: 17, payload: AppendContentChunk(nil, &ContentChunk{Ref: "store/empty", Coding: "MPEG", Total: 0, Last: true})},
	} {
		f.Add(fr.marshal())
	}
	f.Add([]byte{})
	short := (&frame{kind: kindRequest, id: 18, trace: 1, span: 2, method: "m"}).marshal()
	f.Add(short[:frameHeader-1])
	retired := (&frame{kind: kindRequest, id: 19, method: "m"}).marshal()
	retired[0] = 5
	f.Add(retired)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := unmarshalFrame(data)
		if err != nil {
			return
		}
		fr2, err := unmarshalFrame(fr.marshal())
		if err != nil {
			t.Fatalf("decoded frame failed to re-decode: %v", err)
		}
		if fr2.kind != fr.kind || fr2.id != fr.id || fr2.trace != fr.trace || fr2.span != fr.span ||
			fr2.method != fr.method || fr2.errText != fr.errText || !bytes.Equal(fr2.payload, fr.payload) {
			t.Fatalf("round trip changed frame:\n%+v\n%+v", fr, fr2)
		}
	})
}

// FuzzContentChunkDecode throws arbitrary bytes at the chunk and
// stream-request decoders. Anything that decodes must re-encode to the
// exact input bytes: the wire Reader accepts one encoding per value.
func FuzzContentChunkDecode(f *testing.F) {
	f.Add(EncodeGetContentStream("store/v.mpg", 1<<20, 262144))
	f.Add(AppendContentChunk(nil, &ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 8, Data: []byte("01234567"), Last: true, Keywords: []string{"video", "atm/demo"}}))
	f.Add(AppendContentChunk(nil, &ContentChunk{Ref: "r", Total: 0, Last: true}))
	f.Add(AppendContentChunk(nil, &ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 1, Data: []byte("mid")})[:12])
	f.Add(overflowChunk())
	f.Fuzz(func(t *testing.T, data []byte) {
		if ref, off, maxBytes, err := DecodeGetContentStream(data); err == nil {
			if re := EncodeGetContentStream(ref, off, maxBytes); !bytes.Equal(re, data) {
				t.Fatalf("stream request round trip changed: %x -> %x", data, re)
			}
		}
		c, err := DecodeContentChunk(data)
		if err != nil {
			return
		}
		if re := AppendContentChunk(nil, c); !bytes.Equal(re, data) {
			t.Fatalf("chunk round trip changed: %x -> %x", data, re)
		}
	})
}

// overflowChunk is a chunk whose end, Offset+len(Data), wraps past
// 2^64 to land inside a zero Total.
func overflowChunk() []byte {
	return AppendContentChunk(nil, &ContentChunk{Ref: "r", Offset: math.MaxUint64, Total: 0, Last: true, Data: []byte{1}})
}

// FuzzDBCodec throws arbitrary bytes at every courseware-database
// payload decoder: doc record, content record, name list, keyword
// tree, stream request and PutDocument version. None may panic or
// over-allocate, and anything one accepts must re-encode to the exact
// input bytes.
func FuzzDBCodec(f *testing.F) {
	f.Add(appendDoc(nil, &mediastore.DocRecord{Name: "atm-course", Title: "ATM", Encoding: "asn1", Keywords: []string{"network/atm"}, Version: 3, Data: []byte("mheg")}))
	f.Add(appendContentRecord(nil, &mediastore.ContentRecord{Ref: "store/v.mpg", Coding: "MPEG", Keywords: []string{"video"}, Data: []byte("0123")}))
	f.Add(EncodeNameList([]string{"a", "course-b"}))
	f.Add(EncodeKeywordTree(&mediastore.KeywordNode{Docs: []string{"d"}, Children: []*mediastore.KeywordNode{{Name: "network", Children: []*mediastore.KeywordNode{{Name: "atm", Docs: []string{"atm-course"}}}}}}))
	f.Add(EncodeGetContentStream("store/v.mpg", 0, DefaultStreamChunkBytes))
	f.Add(wire.AppendVarint(nil, 7))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00}) // overlong uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		same := func(what string, re []byte) {
			t.Helper()
			if !bytes.Equal(re, data) {
				t.Fatalf("%s round trip changed: %x -> %x", what, data, re)
			}
		}
		if rec, err := decodeDoc(data); err == nil {
			same("doc record", appendDoc(nil, rec))
		}
		if rec, err := DecodeContentRecord(data); err == nil {
			same("content record", appendContentRecord(nil, rec))
		}
		if names, err := DecodeNameList(data); err == nil {
			same("name list", EncodeNameList(names))
		}
		if tree, err := DecodeKeywordTree(data); err == nil {
			same("keyword tree", EncodeKeywordTree(tree))
		}
		if ref, off, maxBytes, err := DecodeGetContentStream(data); err == nil {
			same("stream request", EncodeGetContentStream(ref, off, maxBytes))
		}
		if v, err := decodeVersion(data); err == nil {
			same("version", wire.AppendVarint(nil, int64(v)))
		}
	})
}

// TestKeywordTreeDepthBound: a chain of maxKeywordDepth+1 nodes (root
// at depth 0) decodes; a hand-built chain a million levels deep is
// rejected at the bound instead of recursing the decoder's stack away.
func TestKeywordTreeDepthBound(t *testing.T) {
	chain := func(levels int) *mediastore.KeywordNode {
		root := &mediastore.KeywordNode{}
		for n := root; levels > 1; levels-- {
			c := &mediastore.KeywordNode{Name: "k"}
			n.Children = []*mediastore.KeywordNode{c}
			n = c
		}
		return root
	}
	if _, err := DecodeKeywordTree(EncodeKeywordTree(chain(maxKeywordDepth + 1))); err != nil {
		t.Fatalf("tree at the depth bound rejected: %v", err)
	}
	if _, err := DecodeKeywordTree(EncodeKeywordTree(chain(maxKeywordDepth + 2))); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("tree one past the depth bound: err = %v, want wire.ErrMalformed", err)
	}
	// Each level is an empty name, no docs and one child: 0, 0, 1.
	deep := bytes.Repeat([]byte{0, 0, 1}, 1<<20)
	if _, err := DecodeKeywordTree(deep); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("million-level tree: err = %v, want wire.ErrMalformed", err)
	}
}
