package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"mits/internal/cache"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/wire"
)

// Method names of the courseware-database service. GetListDoc and
// GetSelectedDoc are the two APIs the thesis prototype implements
// (§5.3.2); GetKeywordTree and GetDocByKeyword are the ones it names as
// future work (§5.5); the rest complete the round trip for the
// production and author sites.
const (
	MethodListDocs     = "db.Get_List_Doc"
	MethodGetDoc       = "db.Get_Selected_Doc"
	MethodKeywordTree  = "db.GetKeywordTree"
	MethodDocByKeyword = "db.GetDocByKeyword"
	MethodGetContent   = "db.GetContent"
	MethodPutDoc       = "db.PutDocument"
	MethodPutContent   = "db.PutContent"
)

// Payload layouts, all in the internal/wire encoding. Every keyed
// request starts with its routing key, so RequestKey reads one string
// whatever the method:
//
//	Get_Selected_Doc, GetContent, GetDocByKeyword request: str key
//	PutDocument request, Get_Selected_Doc response: doc record
//	  str name | str title | str encoding | strs keywords |
//	  varint version | bytes data  (the store assigns a put's version)
//	PutDocument response: varint version
//	PutContent request, GetContent response: content record, the
//	  terminal chunk at offset 0 (AppendContentChunk)
//	Get_List_Doc, GetDocByKeyword response: strs names
//	GetKeywordTree response: node = str name | strs docs |
//	  uvarint nchildren | node*

// maxKeywordDepth bounds keyword-tree nesting on decode, so a hostile
// payload cannot recurse the decoder's stack away; keyword paths in a
// course library are a handful of levels deep.
const maxKeywordDepth = 256

func encodeKey(key string) []byte { return wire.AppendString(nil, key) }

func decodeKey(payload []byte) (string, error) {
	r := wire.NewReader(payload)
	key := r.Str()
	return key, r.Done()
}

func appendDoc(buf []byte, rec *mediastore.DocRecord) []byte {
	buf = wire.AppendString(buf, rec.Name)
	buf = wire.AppendString(buf, rec.Title)
	buf = wire.AppendString(buf, rec.Encoding)
	buf = wire.AppendStrings(buf, rec.Keywords)
	buf = wire.AppendVarint(buf, int64(rec.Version))
	return wire.AppendBytes(buf, rec.Data)
}

// decodeDoc decodes a doc record; Data is a private copy.
func decodeDoc(payload []byte) (*mediastore.DocRecord, error) {
	r := wire.NewReader(payload)
	rec := &mediastore.DocRecord{}
	rec.Name = r.Str()
	rec.Title = r.Str()
	rec.Encoding = r.Str()
	rec.Keywords = r.Strs()
	rec.Version = int(r.Varint())
	rec.Data = bytes.Clone(r.Bytes())
	return rec, r.Done()
}

func decodeVersion(payload []byte) (int, error) {
	r := wire.NewReader(payload)
	v := int(r.Varint())
	return v, r.Done()
}

// appendContentRecord encodes rec as the terminal chunk at offset 0.
func appendContentRecord(buf []byte, rec *mediastore.ContentRecord) []byte {
	return AppendContentChunk(buf, &ContentChunk{
		Ref: rec.Ref, Coding: rec.Coding, Total: uint64(len(rec.Data)),
		Last: true, Keywords: rec.Keywords, Data: rec.Data,
	})
}

// RegisterStore exposes a mediastore on a mux as the courseware
// database service.
func RegisterStore(m *Mux, store *mediastore.Store) {
	m.Register(MethodListDocs, func(string, []byte) ([]byte, error) {
		return EncodeNameList(store.ListDocuments()), nil
	})
	m.RegisterCtx(MethodGetDoc, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, error) {
		name, err := decodeKey(payload)
		if err != nil {
			return nil, err
		}
		// Internal span: separates time in the store itself from the
		// transport around it when the request is traced.
		sp := obs.SpanFromContext("store.GetDocument", "internal", sc)
		rec, err := store.GetDocument(name)
		sp.End(err)
		if err != nil {
			return nil, err
		}
		return appendDoc(nil, rec), nil
	})
	m.Register(MethodKeywordTree, func(string, []byte) ([]byte, error) {
		return EncodeKeywordTree(store.Keywords()), nil
	})
	m.Register(MethodDocByKeyword, func(_ string, payload []byte) ([]byte, error) {
		keyword, err := decodeKey(payload)
		if err != nil {
			return nil, err
		}
		return EncodeNameList(store.DocsByKeyword(keyword)), nil
	})
	m.RegisterCtx(MethodGetContent, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, error) {
		ref, err := decodeKey(payload)
		if err != nil {
			return nil, err
		}
		return serveChunk(store, sc, "store.GetContent", ref, 0, math.MaxUint64)
	})
	m.RegisterCtx(MethodGetContentStream, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, error) {
		ref, offset, maxBytes, err := DecodeGetContentStream(payload)
		if err != nil {
			return nil, err
		}
		if maxBytes == 0 {
			maxBytes = DefaultStreamChunkBytes
		}
		if maxBytes > MaxStreamChunkBytes {
			maxBytes = MaxStreamChunkBytes
		}
		return serveChunk(store, sc, "store.GetContentStream", ref, offset, uint64(maxBytes))
	})
	m.Register(MethodPutDoc, func(_ string, payload []byte) ([]byte, error) {
		rec, err := decodeDoc(payload)
		if err != nil {
			return nil, err
		}
		v, err := store.PutDocument(rec.Name, rec.Title, rec.Encoding, rec.Data, rec.Keywords...)
		if err != nil {
			return nil, err
		}
		return wire.AppendVarint(nil, int64(v)), nil
	})
	m.Register(MethodPutContent, func(_ string, payload []byte) ([]byte, error) {
		rec, err := DecodeContentRecord(payload)
		if err != nil {
			return nil, err
		}
		return nil, store.PutContent(rec.Ref, rec.Coding, rec.Data, rec.Keywords...)
	})
}

// EncodeGetDoc encodes a Get_Selected_Doc request payload, for issuing
// the call over asynchronous carriers (ATM sessions).
func EncodeGetDoc(name string) []byte { return encodeKey(name) }

// EncodeGetContent encodes a GetContent request payload.
func EncodeGetContent(ref string) []byte { return encodeKey(ref) }

// DecodeContentRecord decodes a GetContent response payload into a
// record that owns its memory.
func DecodeContentRecord(data []byte) (*mediastore.ContentRecord, error) {
	c, err := DecodeContentChunk(data)
	if err != nil {
		return nil, err
	}
	if c.Index != 0 || c.Offset != 0 || !c.Last {
		return nil, fmt.Errorf("%w: content record is chunk %d at offset %d", ErrBadChunk, c.Index, c.Offset)
	}
	return &mediastore.ContentRecord{Ref: c.Ref, Coding: c.Coding, Keywords: c.Keywords, Data: bytes.Clone(c.Data)}, nil
}

// Routing-key extractors and scatter-gather codecs. A cluster router
// sits between clients and shards speaking the same wire protocol both
// ways: it needs just enough of each request to route it (the object
// name or ref the consistent hash keys on) and the ability to merge
// the per-shard responses of the fan-out methods. Everything below is
// a thin, exported view of the payload layouts for exactly that — the
// payloads themselves are forwarded verbatim via DBClient.Do.

// RequestKey extracts the routing key of a keyed request payload: the
// document name for Get_Selected_Doc/PutDocument, the content ref for
// GetContent/GetContentStream/PutContent. Methods that have no single
// key (list and keyword methods, which fan out) return
// ErrUnkeyedMethod.
func RequestKey(method string, payload []byte) (string, error) {
	switch method {
	case MethodGetDoc, MethodGetContent, MethodGetContentStream, MethodPutDoc, MethodPutContent:
		r := wire.NewReader(payload)
		key := r.Str()
		return key, r.Err()
	}
	return "", fmt.Errorf("%w: %s", ErrUnkeyedMethod, method)
}

// ErrUnkeyedMethod marks a method that carries no single routing key
// (scatter-gather methods route to every shard instead).
var ErrUnkeyedMethod = errors.New("transport: method has no routing key")

// EncodeNameList encodes a []string response payload (ListDocs,
// DocByKeyword) — the merge side of scatter-gather.
func EncodeNameList(names []string) []byte { return wire.AppendStrings(nil, names) }

// DecodeNameList decodes a []string response payload.
func DecodeNameList(payload []byte) ([]string, error) {
	r := wire.NewReader(payload)
	names := r.Strs()
	return names, r.Done()
}

// EncodeKeywordTree encodes a GetKeywordTree response payload.
func EncodeKeywordTree(t *mediastore.KeywordNode) []byte { return appendNode(nil, t) }

func appendNode(buf []byte, n *mediastore.KeywordNode) []byte {
	buf = wire.AppendString(buf, n.Name)
	buf = wire.AppendStrings(buf, n.Docs)
	buf = wire.AppendUvarint(buf, uint64(len(n.Children)))
	for _, c := range n.Children {
		buf = appendNode(buf, c)
	}
	return buf
}

// DecodeKeywordTree decodes a GetKeywordTree response payload.
func DecodeKeywordTree(payload []byte) (*mediastore.KeywordNode, error) {
	r := wire.NewReader(payload)
	tree, err := readNode(&r, 0)
	if err != nil {
		return nil, err
	}
	return tree, r.Done()
}

// readNode decodes one node and its subtree; a node is at least three
// bytes (empty name, no docs, no children), which bounds each count.
func readNode(r *wire.Reader, depth int) (*mediastore.KeywordNode, error) {
	if depth > maxKeywordDepth {
		return nil, fmt.Errorf("%w: keyword tree deeper than %d", wire.ErrMalformed, maxKeywordDepth)
	}
	n := &mediastore.KeywordNode{Name: r.Str(), Docs: r.Strs()}
	if k := r.Count(3); k > 0 {
		n.Children = make([]*mediastore.KeywordNode, k)
		for i := range n.Children {
			c, err := readNode(r, depth+1)
			if err != nil {
				return nil, err
			}
			n.Children[i] = c
		}
	}
	return n, nil
}

// DBClient is the typed client module of §5.3.2, usable over any
// synchronous carrier (TCP or loopback).
type DBClient struct {
	C Client

	// ContentCache, when non-nil, serves repeated GetContent /
	// GetContentStream / FetchContent calls from local memory instead
	// of the wire: a size-bounded LRU with singleflight, so a stampede
	// of scene activations fetching the same MPEG object issues one
	// upstream RPC. Records that pass through the cache are shared
	// under the immutable-bytes handoff contract: every hit returns
	// the same record and callers must not mutate it
	// (CloneContentRecord for the rare caller that must). Nil means
	// every call goes upstream (the experiments keep it nil so store
	// read counts stay exact).
	ContentCache *cache.Cache

	// Trace, when non-zero, is the span context every call continues —
	// a trace-aware handler forwarding work upstream sets it per request
	// (via WithTrace) so the whole multi-hop path shares one trace.
	Trace obs.SpanContext
}

// WithContentCache returns a copy of the client that serves content
// through c.
func (d DBClient) WithContentCache(c *cache.Cache) DBClient {
	d.ContentCache = c
	return d
}

// WithTrace returns a copy of the client whose calls continue sc.
func (d DBClient) WithTrace(sc obs.SpanContext) DBClient {
	d.Trace = sc
	return d
}

// callDecoded issues a call through the allocation-free decode path
// and recycles the (possibly pooled) response once decode returns:
// every decoder it is given copies out what it keeps.
func callDecoded[T any](d DBClient, method string, req []byte, decode func([]byte) (T, error)) (T, error) {
	payload, rel, err := CallInTracePooled(d.C, d.Trace, method, req)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := decode(payload)
	if rel != nil {
		rel()
	}
	return v, err
}

// Do issues one raw, already-encoded RPC through the client's full
// stack (trace, breaker, retry — whatever the carrier composes). It is
// the forwarding hook for proxies that route by inspecting the payload
// rather than re-marshalling it: the cluster router decodes just the
// routing key and ships the original bytes to the chosen replica. The
// zero Trace context makes it an ordinary Call on every carrier.
func (d DBClient) Do(method string, payload []byte) ([]byte, error) {
	return CallInTrace(d.C, d.Trace, method, payload)
}

// GetListDoc returns the stored document names.
func (d DBClient) GetListDoc() ([]string, error) {
	return callDecoded(d, MethodListDocs, nil, DecodeNameList)
}

// GetSelectedDoc retrieves one document by name.
func (d DBClient) GetSelectedDoc(name string) (*mediastore.DocRecord, error) {
	return callDecoded(d, MethodGetDoc, encodeKey(name), decodeDoc)
}

// GetKeywordTree retrieves the library's keyword hierarchy.
func (d DBClient) GetKeywordTree() (*mediastore.KeywordNode, error) {
	return callDecoded(d, MethodKeywordTree, nil, DecodeKeywordTree)
}

// GetDocByKeyword finds documents by keyword path.
func (d DBClient) GetDocByKeyword(keyword string) ([]string, error) {
	return callDecoded(d, MethodDocByKeyword, encodeKey(keyword), DecodeNameList)
}

// GetContent fetches a content object's data by reference, consulting
// the content cache when one is attached. Records served through the
// cache are SHARED under the immutable-bytes handoff contract: every
// hit returns the same record, callers must treat it as read-only, and
// CloneContentRecord gives a private copy to the rare caller that
// needs to mutate. (The cache boundary used to clone defensively on
// every hit; at pipelined rates that copy dominated the hit cost —
// E32 — and the poolcheck tripwire now enforces the no-aliasing side
// of the bargain in the transport itself.)
func (d DBClient) GetContent(ref string) (*mediastore.ContentRecord, error) {
	if d.ContentCache == nil {
		return d.fetchContent(ref)
	}
	v, err := d.ContentCache.GetOrFill(ref, func() (any, int64, error) {
		rec, err := d.fetchContent(ref)
		if err != nil {
			return nil, 0, err
		}
		return rec, int64(len(rec.Data)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mediastore.ContentRecord), nil
}

// fetchContent is the uncached upstream path: one GetContent RPC. The
// decode copies the record out of the (pooled) response before it is
// recycled, so the returned record owns its memory — which is exactly
// what the cache's immutable handoff needs.
func (d DBClient) fetchContent(ref string) (*mediastore.ContentRecord, error) {
	return callDecoded(d, MethodGetContent, encodeKey(ref), DecodeContentRecord)
}

// CloneContentRecord deep-copies a record — the escape hatch for
// callers that need to mutate what GetContent/GetContentStream
// returned, now that cached records are shared rather than cloned on
// every hit.
func CloneContentRecord(rec *mediastore.ContentRecord) *mediastore.ContentRecord {
	cp := *rec
	cp.Data = append([]byte(nil), rec.Data...)
	cp.Keywords = append([]string(nil), rec.Keywords...)
	return &cp
}

// PutDocument publishes a courseware document (author site).
func (d DBClient) PutDocument(name, title, encoding string, data []byte, keywords ...string) (int, error) {
	req := appendDoc(nil, &mediastore.DocRecord{Name: name, Title: title, Encoding: encoding, Keywords: keywords, Data: data})
	return callDecoded(d, MethodPutDoc, req, decodeVersion)
}

// PutContent uploads media data (production center).
func (d DBClient) PutContent(ref, coding string, data []byte, keywords ...string) error {
	rec := &mediastore.ContentRecord{Ref: ref, Coding: coding, Keywords: keywords, Data: data}
	_, err := d.Do(MethodPutContent, appendContentRecord(nil, rec))
	return err
}

// FetchContent implements engine.ContentResolver over the database
// client, so a navigator's MHEG engine pulls referenced content through
// the network path.
func (d DBClient) FetchContent(ref string) ([]byte, error) {
	rec, err := d.GetContent(ref)
	if err != nil {
		return nil, fmt.Errorf("transport: fetch content %q: %w", ref, err)
	}
	return rec.Data, nil
}

// NewResilientDBClient builds the hardened client stack of DESIGN §9
// around a dialer: a circuit breaker (outermost, so an open breaker
// rejects before any retry or dial work) over an idempotent-retry
// client that redials on connection failure. The breaker is returned
// alongside so callers can observe or reset it; peer labels the
// breaker's metrics. Seed fixes the retry jitter stream for
// reproducible chaos runs.
func NewResilientDBClient(peer string, dial Dialer, policy RetryPolicy, threshold int, cooldown time.Duration, seed uint64) (DBClient, *Breaker) {
	br := NewBreaker(peer, threshold, cooldown)
	rc := NewRetryClient(dial, policy, seed)
	return DBClient{C: WithBreaker(rc, br)}, br
}

// ForwardHandler serves the courseware-database service by proxying to
// an upstream site through a DBClient — the edge node of a multi-hop
// delivery path (navigator → edge cache → store). It is trace-aware:
// the span context of the incoming request threads into every upstream
// call, so one trace spans all hops. GetContent goes through the
// client's typed path (and therefore its content cache, when one is
// attached); every other method forwards raw bytes.
type ForwardHandler struct {
	DB DBClient
}

// Handle implements Handler (untraced requests).
func (f ForwardHandler) Handle(method string, payload []byte) ([]byte, error) {
	return f.HandleCtx(obs.SpanContext{}, method, payload)
}

// HandleCtx implements CtxHandler.
func (f ForwardHandler) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	d := f.DB.WithTrace(sc)
	if method == MethodGetContent && d.ContentCache != nil {
		ref, err := decodeKey(payload)
		if err != nil {
			return nil, err
		}
		rec, err := d.GetContent(ref)
		if err != nil {
			return nil, err
		}
		return appendContentRecord(nil, rec), nil
	}
	// The server recycles the request buffer when this handler returns,
	// but a timed-out upstream call can leave its frame queued behind
	// the upstream writer still referencing payload — forward a private
	// copy.
	return d.Do(method, append([]byte(nil), payload...))
}
