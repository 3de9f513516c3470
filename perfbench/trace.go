package main

import (
	"hash/maphash"
	"sync"
	"time"

	"mits/internal/obs"
	"mits/internal/transport"
)

// Tracing from outside the program: benchmark-owned wrappers around
// the public interfaces at each layer boundary record one span per
// call. The router forwards request payloads verbatim, so method plus
// a hash of the payload identifies one request at every layer; the
// analysis (analyze.go) settles duplicates by interval containment.

// Span layers, outermost first.
const (
	layerOp     = iota // one user operation (session, browse step, publish call)
	layerClient        // the navigator's transport.Client
	layerFront         // the front door's Handler (router + school mux)
	layerHop           // a router → shard client (ReplicaConfig.Dial)
	layerShard         // a shard node's Handler
	numLayers
)

// span is one recorded call. Times are nanoseconds since the log's base.
type span struct {
	node       int // user index (op, client) or store node index (hop, shard)
	method     string
	key        uint64 // hash of the request payload
	start, end int64
	reqBytes   int
	respBytes  int
	dataBytes  int // media bytes carried by a content response
	failed     bool

	asked int // op spans: content bytes the op asked the navigator for
}

func (s *span) dur() int64 { return s.end - s.start }

// spanLog collects spans for all layers. One mutex per layer keeps the
// recording cheap next to the calls it measures.
type spanLog struct {
	base   time.Time
	seed   maphash.Seed
	layers [numLayers]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), seed: maphash.MakeSeed()}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

// keyPrefix bounds how much of a payload the key hashes: request
// payloads are small except puts, whose first bytes already name the
// object, and whose length tells the two variants apart.
const keyPrefix = 512

func (l *spanLog) key(payload []byte) uint64 {
	return maphash.Bytes(l.seed, payload[:min(len(payload), keyPrefix)]) ^ uint64(len(payload))
}

func (l *spanLog) add(layer int, s span) {
	ly := &l.layers[layer]
	ly.mu.Lock()
	ly.spans = append(ly.spans, s)
	ly.mu.Unlock()
}

// take returns a layer's spans; call only after recording stopped.
func (l *spanLog) take(layer int) []span {
	ly := &l.layers[layer]
	ly.mu.Lock()
	defer ly.mu.Unlock()
	return ly.spans
}

// contentData is the number of media bytes a successful content
// response carries. Decoding a monolithic GetContent response copies
// the record; that cost lands in the traced run only and shows in
// trace.overhead_frac.
func contentData(method string, resp []byte) int {
	switch method {
	case transport.MethodGetContentStream:
		if ck, err := transport.DecodeContentChunk(resp); err == nil {
			return len(ck.Data)
		}
	case transport.MethodGetContent:
		if rec, err := transport.DecodeContentRecord(resp); err == nil {
			return len(rec.Data)
		}
	}
	return 0
}

// clientSpans records every call through a transport.Client. The
// exported wrapper types below add exactly the optional interfaces the
// wrapped client has, so transport.CallInTrace and CallInTracePooled
// take the same path through the wrapper as they would without it.
type clientSpans struct {
	inner transport.Client
	log   *spanLog
	layer int
	node  int
}

func (c *clientSpans) record(start int64, method string, req, resp []byte, err error) {
	s := span{
		node: c.node, method: method, key: c.log.key(req),
		start: start, end: c.log.now(),
		reqBytes: len(req), respBytes: len(resp), failed: err != nil,
	}
	if c.layer == layerClient && err == nil {
		s.dataBytes = contentData(method, resp)
	}
	c.log.add(c.layer, s)
}

func (c *clientSpans) Call(method string, payload []byte) ([]byte, error) {
	start := c.log.now()
	out, err := c.inner.Call(method, payload)
	c.record(start, method, payload, out, err)
	return out, err
}

func (c *clientSpans) Close() error { return c.inner.Close() }

func (c *clientSpans) callInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	start := c.log.now()
	out, err := c.inner.(transport.TraceCaller).CallInTrace(sc, method, payload)
	c.record(start, method, payload, out, err)
	return out, err
}

func (c *clientSpans) callInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	start := c.log.now()
	out, rel, err := c.inner.(transport.PooledTraceCaller).CallInTracePooled(sc, method, payload)
	c.record(start, method, payload, out, err) // before the caller releases out
	return out, rel, err
}

type traceClient struct{ *clientSpans }

func (c traceClient) CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	return c.callInTrace(sc, method, payload)
}

type pooledClient struct{ *clientSpans }

func (c pooledClient) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	return c.callInTracePooled(sc, method, payload)
}

type tracePooledClient struct{ *clientSpans }

func (c tracePooledClient) CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	return c.callInTrace(sc, method, payload)
}

func (c tracePooledClient) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	return c.callInTracePooled(sc, method, payload)
}

// wrapClient returns c recording into log, exposing the same optional
// interfaces as c.
func wrapClient(c transport.Client, log *spanLog, layer, node int) transport.Client {
	base := &clientSpans{inner: c, log: log, layer: layer, node: node}
	_, tc := c.(transport.TraceCaller)
	_, pc := c.(transport.PooledTraceCaller)
	switch {
	case tc && pc:
		return tracePooledClient{base}
	case tc:
		return traceClient{base}
	case pc:
		return pooledClient{base}
	}
	return base
}

// wrapDialer wraps every client a dialer produces.
func wrapDialer(dial transport.Dialer, log *spanLog, node int) transport.Dialer {
	return func() (transport.Client, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return wrapClient(c, log, layerHop, node), nil
	}
}

// handlerSpans records every request a server hands its Handler.
type handlerSpans struct {
	inner transport.Handler
	log   *spanLog
	layer int
	node  int
}

func (h *handlerSpans) record(start int64, method string, req, resp []byte, err error) {
	h.log.add(h.layer, span{
		node: h.node, method: method, key: h.log.key(req),
		start: start, end: h.log.now(),
		reqBytes: len(req), respBytes: len(resp), failed: err != nil,
	})
}

func (h *handlerSpans) Handle(method string, payload []byte) ([]byte, error) {
	start := h.log.now()
	out, err := h.inner.Handle(method, payload)
	h.record(start, method, payload, out, err)
	return out, err
}

type ctxHandler struct{ *handlerSpans }

func (h ctxHandler) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	start := h.log.now()
	out, err := h.inner.(transport.CtxHandler).HandleCtx(sc, method, payload)
	h.record(start, method, payload, out, err)
	return out, err
}

// wrapHandler returns h recording into log, exposing CtxHandler exactly
// when h does (the TCP server probes for it once at construction).
func wrapHandler(h transport.Handler, log *spanLog, layer, node int) transport.Handler {
	base := &handlerSpans{inner: h, log: log, layer: layer, node: node}
	if _, ok := h.(transport.CtxHandler); ok {
		return ctxHandler{base}
	}
	return base
}
