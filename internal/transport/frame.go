// Package transport implements the client–server communication model of
// Fig 3.5: navigator clients issue requests ("a database server waits
// and listens for a service request from a client"), the server
// dispatches them to the courseware database and streams results back.
//
// The same framed request/response protocol runs over two carriers: a
// real TCP connection (the deployment path, used by cmd/mitsd and
// cmd/navigator) and a pair of simulated ATM virtual connections (the
// experiment path, where delivery timing matters and everything runs on
// virtual time).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mits/internal/obs"
)

// MaxFrame bounds a single message; large content is chunked by the
// database API layer.
const MaxFrame = 16 << 20

// frameKind distinguishes requests from responses on a duplex carrier.
type frameKind byte

const (
	kindRequest frameKind = iota + 1
	kindResponse
)

// frameHeader is the fixed head of every frame, up to and including
// the name length: kind(1) id(8) trace(8) span(8) nameLen(4). The name
// (method or error text) follows, then payLen(4) and the payload.
const frameHeader = 1 + 8 + 8 + 8 + 4

// frame is the wire unit, one layout on both carriers. id is the
// request-correlation ID: the client picks it, the server echoes it,
// and the client's pending-call map is keyed on it, which is what lets
// one connection carry many in-flight calls completing out of order.
// trace/span carry the obs trace context (zero trace = untraced).
// method names the operation (requests); errText carries failure
// (responses).
type frame struct {
	kind    frameKind
	id      uint64
	trace   uint64
	span    uint64
	method  string // requests
	errText string // responses
	payload []byte

	// buf, when non-nil, is the pooled backing buffer this frame was
	// decoded from; releaseFrame returns it for reuse. The server's
	// request path recycles it after the response is encoded; the
	// client's response path recycles it only through the pooled call
	// API's release callback (a plain Call's payload is caller-owned
	// and falls to the GC).
	buf []byte
}

// name is the frame's variable-length string field.
func (f *frame) name() string {
	if f.kind == kindResponse {
		return f.errText
	}
	return f.method
}

// wireSize reports the marshalled body length, so writers can size a
// pooled buffer before encoding.
func (f *frame) wireSize() int {
	return frameHeader + len(f.name()) + 4 + len(f.payload)
}

// appendTo encodes the frame body (without the outer length prefix TCP
// adds) onto buf, returning the extended slice.
func (f *frame) appendTo(buf []byte) []byte {
	name := f.name()
	buf = append(buf, byte(f.kind))
	buf = binary.BigEndian.AppendUint64(buf, f.id)
	buf = binary.BigEndian.AppendUint64(buf, f.trace)
	buf = binary.BigEndian.AppendUint64(buf, f.span)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.payload)))
	buf = append(buf, f.payload...)
	return buf
}

// marshal encodes the frame body into a fresh allocation (the ATM
// carrier and tests; the TCP path encodes into pooled buffers via
// wireSize/appendTo).
func (f *frame) marshal() []byte {
	return f.appendTo(make([]byte, 0, f.wireSize()))
}

// ErrBadFrame marks a wire frame that failed to decode — a corrupted
// or desynchronized peer. It is typed so clients can distinguish
// malformed traffic from timeouts and hangups.
var ErrBadFrame = errors.New("transport: malformed frame")

func unmarshalFrame(data []byte) (*frame, error) {
	if len(data) < frameHeader {
		return nil, ErrBadFrame
	}
	f := &frame{
		kind:  frameKind(data[0]),
		id:    binary.BigEndian.Uint64(data[1:]),
		trace: binary.BigEndian.Uint64(data[9:]),
		span:  binary.BigEndian.Uint64(data[17:]),
	}
	if f.kind != kindRequest && f.kind != kindResponse {
		return nil, fmt.Errorf("%w: kind %d", ErrBadFrame, f.kind)
	}
	nameLen := int(binary.BigEndian.Uint32(data[25:]))
	off := frameHeader
	if nameLen < 0 || off+nameLen+4 > len(data) {
		return nil, ErrBadFrame
	}
	name := string(data[off : off+nameLen])
	off += nameLen
	payLen := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if payLen < 0 || off+payLen != len(data) {
		return nil, ErrBadFrame
	}
	if f.kind == kindRequest {
		f.method = name
	} else {
		f.errText = name
	}
	if payLen > 0 {
		f.payload = data[off : off+payLen]
	}
	return f, nil
}

// Handler processes one request and returns the response payload. The
// request payload is only valid until Handle returns (the TCP server
// recycles its backing buffer afterwards); a handler that needs the
// bytes later must copy them. Returning the payload itself (or a slice
// of it) as the response is fine — the buffer is released only after
// the response is written.
type Handler interface {
	Handle(method string, payload []byte) ([]byte, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(method string, payload []byte) ([]byte, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(method string, payload []byte) ([]byte, error) {
	return f(method, payload)
}

// CtxHandler is the trace-aware handler contract: HandleCtx receives
// the span context of the server span opened for the request (zero
// when the request is untraced), so nested work — an internal span, a
// further RPC to another site — lands in the same trace. NewTCPServer
// wraps a trace-blind Handler into one once, and the loopback carrier
// falls back to Handle, so trace-blind handlers keep working unchanged.
type CtxHandler interface {
	HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error)
}

// CtxHandlerFunc adapts a function to CtxHandler.
type CtxHandlerFunc func(sc obs.SpanContext, method string, payload []byte) ([]byte, error)

// HandleCtx implements CtxHandler.
func (f CtxHandlerFunc) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	return f(sc, method, payload)
}

// ErrUnknownMethod is returned by Mux for unregistered methods.
var ErrUnknownMethod = errors.New("transport: unknown method")

// Mux dispatches requests by method name. The zero value is unusable;
// create with NewMux. Registration happens at server start-up; serving
// is concurrent-safe because the map is read-only afterwards. Routes
// are context-aware internally; Register wraps a trace-blind handler,
// RegisterCtx mounts one that threads the span context onward.
type Mux struct {
	routes map[string]CtxHandlerFunc
}

// NewMux returns an empty mux.
func NewMux() *Mux { return &Mux{routes: make(map[string]CtxHandlerFunc)} }

// Register adds a method handler; re-registering a method panics (it is
// always a wiring bug).
func (m *Mux) Register(method string, h HandlerFunc) {
	m.RegisterCtx(method, func(_ obs.SpanContext, method string, payload []byte) ([]byte, error) {
		return h(method, payload)
	})
}

// RegisterCtx adds a trace-aware method handler.
func (m *Mux) RegisterCtx(method string, h CtxHandlerFunc) {
	if _, dup := m.routes[method]; dup {
		panic("transport: duplicate method " + method)
	}
	m.routes[method] = h
}

// Handle implements Handler.
func (m *Mux) Handle(method string, payload []byte) ([]byte, error) {
	return m.HandleCtx(obs.SpanContext{}, method, payload)
}

// HandleCtx implements CtxHandler.
func (m *Mux) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	h, ok := m.routes[method]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, method)
	}
	return h(sc, method, payload)
}

// Client is a synchronous request issuer (TCP and loopback carriers).
type Client interface {
	Call(method string, payload []byte) ([]byte, error)
	Close() error
}

// TraceCaller is the client-side half of trace propagation: a client
// that can issue a call whose client span continues an existing trace
// rather than opening a fresh one. All carriers in this package
// implement it; the package-level CallInTrace probes for it so callers
// degrade gracefully over a plain Client.
type TraceCaller interface {
	CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error)
}

// CallInTrace issues a call continuing the trace in sc when the client
// supports it, falling back to an ordinary (fresh-trace or untraced)
// Call when it does not. A zero sc behaves exactly like Call on every
// carrier.
func CallInTrace(c Client, sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	if tc, ok := c.(TraceCaller); ok {
		return tc.CallInTrace(sc, method, payload)
	}
	return c.Call(method, payload)
}

// PooledTraceCaller is the optional client interface of the
// allocation-free decode path: the returned payload may be backed by a
// pooled buffer that release (when non-nil) recycles. The contract is
// strict — after release the payload and anything aliasing it are
// invalid, and release must be called at most once — but opting out is
// always safe: drop release and the buffer falls to the GC like any
// other allocation.
type PooledTraceCaller interface {
	CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error)
}

// CallInTracePooled issues a call through the pooled decode path when
// the client supports it, degrading to CallInTrace (nil release, plain
// heap payload) when it does not — the loopback carrier and test fakes
// keep working unchanged, they just skip the recycling.
func CallInTracePooled(c Client, sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	if pc, ok := c.(PooledTraceCaller); ok {
		return pc.CallInTracePooled(sc, method, payload)
	}
	out, err := CallInTrace(c, sc, method, payload)
	return out, nil, err
}

// Loopback adapts a Handler into an in-process Client, used by unit
// tests and by co-located sites (the author site editing against a
// local database).
type Loopback struct{ H Handler }

// Call implements Client.
func (l Loopback) Call(method string, payload []byte) ([]byte, error) {
	return l.H.Handle(method, payload)
}

// CallInTrace implements TraceCaller: the context reaches a trace-aware
// handler directly — no wire hop, no client/server span pair, matching
// the carrier's in-process nature.
func (l Loopback) CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	if ch, ok := l.H.(CtxHandler); ok {
		return ch.HandleCtx(sc, method, payload)
	}
	return l.H.Handle(method, payload)
}

// Close implements Client.
func (l Loopback) Close() error { return nil }
