package transport

import (
	"bytes"
	"testing"
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
		{kind: kindRequest, id: 14, method: MethodGetContentStream, payload: mustStreamReq("store/v.mpg", 0, 262144)},
		{kind: kindResponse, id: 14, payload: mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 8, Data: []byte("01234567"), Last: true, Keywords: []string{"video"}})},
		{kind: kindResponse, id: 15, payload: mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 1, Data: []byte("partial")})[:20]},
		{kind: kindResponse, id: 16, payload: mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 7, Data: []byte("ooo")})},
		{kind: kindResponse, id: 17, payload: mustChunk(&ContentChunk{Ref: "store/empty", Coding: "MPEG", Total: 0, Last: true})},
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

// mustStreamReq / mustChunk build fuzz seeds; the inputs are static and
// known-good, so an encode failure is a seed bug worth a panic.
func mustStreamReq(ref string, offset uint64, maxBytes uint32) []byte {
	b, err := EncodeGetContentStream(ref, offset, maxBytes)
	if err != nil {
		panic(err)
	}
	return b
}

func mustChunk(c *ContentChunk) []byte {
	b, err := AppendContentChunk(nil, c)
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzContentChunkDecode throws arbitrary bytes at the chunk and
// stream-request decoders. Anything that decodes must re-encode and
// re-decode to the same chunk — and never alias beyond the payload.
func FuzzContentChunkDecode(f *testing.F) {
	f.Add(mustStreamReq("store/v.mpg", 1<<20, 262144))
	f.Add(mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 8, Data: []byte("01234567"), Last: true, Keywords: []string{"video", "atm/demo"}}))
	f.Add(mustChunk(&ContentChunk{Ref: "r", Total: 0, Last: true}))
	f.Add(mustChunk(&ContentChunk{Ref: "store/v.mpg", Coding: "MPEG", Total: 1 << 20, Offset: 262144, Index: 1, Data: []byte("mid")})[:12])
	f.Fuzz(func(t *testing.T, data []byte) {
		if ref, off, maxBytes, err := DecodeGetContentStream(data); err == nil {
			re := mustStreamReq(ref, off, maxBytes)
			if !bytes.Equal(re, data) {
				t.Fatalf("stream request round trip changed: %x -> %x", data, re)
			}
		}
		c, err := DecodeContentChunk(data)
		if err != nil {
			return
		}
		re, err := AppendContentChunk(nil, c)
		if err != nil {
			t.Fatalf("decoded chunk failed to re-encode: %v", err)
		}
		c2, err := DecodeContentChunk(re)
		if err != nil {
			t.Fatalf("re-encoded chunk failed to decode: %v", err)
		}
		if c2.Ref != c.Ref || c2.Coding != c.Coding || c2.Index != c.Index ||
			c2.Offset != c.Offset || c2.Total != c.Total || c2.Last != c.Last ||
			!bytes.Equal(c2.Data, c.Data) {
			t.Fatalf("chunk round trip changed:\n%+v\n%+v", c, c2)
		}
	})
}
