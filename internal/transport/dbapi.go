package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"mits/internal/cache"
	"mits/internal/mediastore"
	"mits/internal/obs"
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

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// Wire structs.
type getDocReq struct{ Name string }
type putDocReq struct {
	Name, Title, Encoding string
	Keywords              []string
	Data                  []byte
}
type putDocResp struct{ Version int }
type getContentReq struct{ Ref string }
type putContentReq struct {
	Ref, Coding string
	Keywords    []string
	Data        []byte
}
type keywordReq struct{ Keyword string }

// RegisterStore exposes a mediastore on a mux as the courseware
// database service.
func RegisterStore(m *Mux, store *mediastore.Store) {
	m.Register(MethodListDocs, func(_ string, _ []byte) ([]byte, error) {
		return gobEncode(store.ListDocuments())
	})
	m.RegisterCtx(MethodGetDoc, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, error) {
		var req getDocReq
		if err := gobDecode(payload, &req); err != nil {
			return nil, err
		}
		// Internal span: separates time in the store itself from the
		// transport around it when the request is traced.
		sp := obs.SpanFromContext("store.GetDocument", "internal", sc)
		rec, err := store.GetDocument(req.Name)
		sp.End(err)
		if err != nil {
			return nil, err
		}
		return gobEncode(rec)
	})
	m.Register(MethodKeywordTree, func(_ string, _ []byte) ([]byte, error) {
		return gobEncode(store.Keywords())
	})
	m.Register(MethodDocByKeyword, func(_ string, payload []byte) ([]byte, error) {
		var req keywordReq
		if err := gobDecode(payload, &req); err != nil {
			return nil, err
		}
		return gobEncode(store.DocsByKeyword(req.Keyword))
	})
	m.RegisterCtx(MethodGetContent, func(sc obs.SpanContext, _ string, payload []byte) ([]byte, error) {
		var req getContentReq
		if err := gobDecode(payload, &req); err != nil {
			return nil, err
		}
		sp := obs.SpanFromContext("store.GetContent", "internal", sc)
		// Borrow, don't copy: the record is immediately re-serialized,
		// so GetContent's defensive copy would be pure allocator load.
		// Borrowed records are immutable and gob only reads them.
		rec, err := store.GetContentBorrow(req.Ref)
		sp.End(err)
		if err != nil {
			return nil, err
		}
		return gobEncode(rec)
	})
	registerContentStream(m, store)
	m.Register(MethodPutDoc, func(_ string, payload []byte) ([]byte, error) {
		var req putDocReq
		if err := gobDecode(payload, &req); err != nil {
			return nil, err
		}
		v, err := store.PutDocument(req.Name, req.Title, req.Encoding, req.Data, req.Keywords...)
		if err != nil {
			return nil, err
		}
		return gobEncode(putDocResp{Version: v})
	})
	m.Register(MethodPutContent, func(_ string, payload []byte) ([]byte, error) {
		var req putContentReq
		if err := gobDecode(payload, &req); err != nil {
			return nil, err
		}
		return nil, store.PutContent(req.Ref, req.Coding, req.Data, req.Keywords...)
	})
}

// EncodeGetDoc encodes a Get_Selected_Doc request payload, for issuing
// the call over asynchronous carriers (ATM sessions).
func EncodeGetDoc(name string) ([]byte, error) { return gobEncode(getDocReq{Name: name}) }

// EncodeGetContent encodes a GetContent request payload.
func EncodeGetContent(ref string) ([]byte, error) { return gobEncode(getContentReq{Ref: ref}) }

// DecodeContentRecord decodes a GetContent response payload.
func DecodeContentRecord(data []byte) (*mediastore.ContentRecord, error) {
	var rec mediastore.ContentRecord
	return &rec, gobDecode(data, &rec)
}

// Routing-key extractors and scatter-gather codecs. A cluster router
// sits between clients and shards speaking the same wire protocol both
// ways: it needs just enough of each request to route it (the object
// name or ref the consistent hash keys on) and the ability to merge
// the per-shard responses of the fan-out methods. Everything below is
// a thin, exported view of the wire structs for exactly that — the
// payloads themselves are forwarded verbatim via DBClient.Do.

// RequestKey extracts the routing key of a keyed request payload: the
// document name for Get_Selected_Doc/PutDocument, the content ref for
// GetContent/PutContent. Methods that have no single key (list and
// keyword methods, which fan out) return ErrUnkeyedMethod.
func RequestKey(method string, payload []byte) (string, error) {
	switch method {
	case MethodGetDoc:
		var req getDocReq
		return req.Name, gobDecode(payload, &req)
	case MethodGetContent:
		var req getContentReq
		return req.Ref, gobDecode(payload, &req)
	case MethodPutDoc:
		var req putDocReq
		return req.Name, gobDecode(payload, &req)
	case MethodPutContent:
		var req putContentReq
		return req.Ref, gobDecode(payload, &req)
	case MethodGetContentStream:
		ref, _, _, err := DecodeGetContentStream(payload)
		return ref, err
	}
	return "", fmt.Errorf("%w: %s", ErrUnkeyedMethod, method)
}

// ErrUnkeyedMethod marks a method that carries no single routing key
// (scatter-gather methods route to every shard instead).
var ErrUnkeyedMethod = errors.New("transport: method has no routing key")

// EncodeNameList encodes a []string response payload (ListDocs,
// DocByKeyword) — the merge side of scatter-gather.
func EncodeNameList(names []string) ([]byte, error) { return gobEncode(names) }

// DecodeNameList decodes a []string response payload.
func DecodeNameList(payload []byte) ([]string, error) {
	var names []string
	return names, gobDecode(payload, &names)
}

// EncodeKeywordTree encodes a GetKeywordTree response payload.
func EncodeKeywordTree(t *mediastore.KeywordNode) ([]byte, error) { return gobEncode(t) }

// DecodeKeywordTree decodes a GetKeywordTree response payload.
func DecodeKeywordTree(payload []byte) (*mediastore.KeywordNode, error) {
	var tree mediastore.KeywordNode
	return &tree, gobDecode(payload, &tree)
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

// call issues one RPC through the carrier; the zero Trace context
// makes it an ordinary Call on every carrier.
func (d DBClient) call(method string, payload []byte) ([]byte, error) {
	return CallInTrace(d.C, d.Trace, method, payload)
}

// callPooled is call through the allocation-free decode path: the
// response may be backed by a pooled buffer that the returned release
// (when non-nil) recycles. Used by the typed methods, which gob-decode
// (copying everything out) and release before returning.
func (d DBClient) callPooled(method string, payload []byte) ([]byte, func(), error) {
	return CallInTracePooled(d.C, d.Trace, method, payload)
}

// decodeReleased gob-decodes a pooled response into v and recycles the
// response buffer: gob copies every byte it keeps, so nothing aliases
// the buffer once Decode returns.
func decodeReleased(payload []byte, rel func(), v any) error {
	err := gobDecode(payload, v)
	if rel != nil {
		rel()
	}
	return err
}

// Do issues one raw, already-encoded RPC through the client's full
// stack (trace, breaker, retry — whatever the carrier composes). It is
// the forwarding hook for proxies that route by inspecting the payload
// rather than re-marshalling it: the cluster router decodes just the
// routing key and ships the original bytes to the chosen replica.
func (d DBClient) Do(method string, payload []byte) ([]byte, error) {
	return d.call(method, payload)
}

// GetListDoc returns the stored document names.
func (d DBClient) GetListDoc() ([]string, error) {
	payload, rel, err := d.callPooled(MethodListDocs, nil)
	if err != nil {
		return nil, err
	}
	var names []string
	return names, decodeReleased(payload, rel, &names)
}

// GetSelectedDoc retrieves one document by name.
func (d DBClient) GetSelectedDoc(name string) (*mediastore.DocRecord, error) {
	req, err := gobEncode(getDocReq{Name: name})
	if err != nil {
		return nil, err
	}
	payload, rel, err := d.callPooled(MethodGetDoc, req)
	if err != nil {
		return nil, err
	}
	var rec mediastore.DocRecord
	return &rec, decodeReleased(payload, rel, &rec)
}

// GetKeywordTree retrieves the library's keyword hierarchy.
func (d DBClient) GetKeywordTree() (*mediastore.KeywordNode, error) {
	payload, rel, err := d.callPooled(MethodKeywordTree, nil)
	if err != nil {
		return nil, err
	}
	var tree mediastore.KeywordNode
	return &tree, decodeReleased(payload, rel, &tree)
}

// GetDocByKeyword finds documents by keyword path.
func (d DBClient) GetDocByKeyword(keyword string) ([]string, error) {
	req, err := gobEncode(keywordReq{Keyword: keyword})
	if err != nil {
		return nil, err
	}
	payload, rel, err := d.callPooled(MethodDocByKeyword, req)
	if err != nil {
		return nil, err
	}
	var names []string
	return names, decodeReleased(payload, rel, &names)
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

// fetchContent is the uncached upstream path. The gob decode copies
// the record out of the (pooled) response before it is recycled, so
// the returned record owns its memory — which is exactly what the
// cache's immutable handoff needs.
func (d DBClient) fetchContent(ref string) (*mediastore.ContentRecord, error) {
	req, err := gobEncode(getContentReq{Ref: ref})
	if err != nil {
		return nil, err
	}
	payload, rel, err := d.callPooled(MethodGetContent, req)
	if err != nil {
		return nil, err
	}
	var rec mediastore.ContentRecord
	return &rec, decodeReleased(payload, rel, &rec)
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
	req, err := gobEncode(putDocReq{Name: name, Title: title, Encoding: encoding, Keywords: keywords, Data: data})
	if err != nil {
		return 0, err
	}
	payload, err := d.call(MethodPutDoc, req)
	if err != nil {
		return 0, err
	}
	var resp putDocResp
	return resp.Version, gobDecode(payload, &resp)
}

// PutContent uploads media data (production center).
func (d DBClient) PutContent(ref, coding string, data []byte, keywords ...string) error {
	req, err := gobEncode(putContentReq{Ref: ref, Coding: coding, Keywords: keywords, Data: data})
	if err != nil {
		return err
	}
	_, err = d.call(MethodPutContent, req)
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
		var req getContentReq
		if err := gobDecode(payload, &req); err != nil {
			return nil, err
		}
		rec, err := d.GetContent(req.Ref)
		if err != nil {
			return nil, err
		}
		return gobEncode(rec)
	}
	// The server recycles the request buffer when this handler returns,
	// but a timed-out upstream call can leave its frame queued behind
	// the upstream writer still referencing payload — forward a private
	// copy.
	return d.call(method, append([]byte(nil), payload...))
}
