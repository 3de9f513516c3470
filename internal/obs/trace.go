package obs

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// TraceID identifies one distributed request end to end. It is minted
// at the first client span and propagated through the transport frame
// header so every site touched by the request records spans under the
// same ID.
type TraceID uint64

// String renders the canonical 16-hex-digit form used in exposition
// output and frame logs.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the 16-hex-digit form.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// DeadlineMissPrefix marks a span error recording missed soft
// real-time deadlines rather than a failure: stream playback that
// finished, but late. The trace collector's tail sampler treats such
// traces as always worth retaining, same as errors.
const DeadlineMissPrefix = "deadline-miss: "

// SpanContext is the propagation half of a span: the trace it belongs
// to and the span that parents whatever continues the work on the far
// side of a hop. The transport carries it in the frame header; servers
// hand it to trace-aware handlers so a nested RPC lands in the same
// trace as the request that caused it. The zero value means "no trace
// in progress".
type SpanContext struct {
	Trace  TraceID
	Parent SpanID
}

// Context returns the span's propagation context — what a nested call
// should continue under. Nil spans yield the zero context, so untraced
// paths need no branches.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Parent: s.ID}
}

// NewTraceContext mints a fresh trace: a new trace ID with no parent
// span, so the first span opened under it is the trace's root. A
// caller that needs a call's trace ID (to find the trace afterwards)
// mints it here and passes the context into the call.
func NewTraceContext() SpanContext {
	return SpanContext{Trace: TraceID(nonZero(rand.Uint64()))}
}

// SpanFromContext opens a child span under sc in the Default registry,
// or returns nil (a no-op span) when sc carries no trace — the idiom
// for instrumenting internal work only when somebody upstream is
// actually tracing the request.
func SpanFromContext(name, kind string, sc SpanContext) *Span {
	if sc.Trace == 0 {
		return nil
	}
	return Default.ContinueSpan(name, kind, sc.Trace, sc.Parent)
}

// Span is one timed operation within a trace: an RPC issue on the
// client, its handling on the server, a database lookup beneath it.
// Spans are cheap (no allocation beyond the struct) and must be closed
// with End exactly once.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for a trace's root span
	Name   string // operation, e.g. the RPC method
	Kind   string // "client", "server", "internal"
	Start  time.Time
	Dur    time.Duration // set by End
	Err    string        // set by End on failure

	reg   *Registry
	ended bool
}

// StartSpan opens the root span of a brand-new trace.
func (r *Registry) StartSpan(name, kind string) *Span {
	return r.newSpan(name, kind, TraceID(nonZero(rand.Uint64())), 0)
}

// ContinueSpan opens a span inside an existing trace, typically on the
// serving side of an RPC whose frame header carried the IDs.
func (r *Registry) ContinueSpan(name, kind string, trace TraceID, parent SpanID) *Span {
	if trace == 0 {
		return r.StartSpan(name, kind)
	}
	return r.newSpan(name, kind, trace, parent)
}

func (r *Registry) newSpan(name, kind string, trace TraceID, parent SpanID) *Span {
	return &Span{
		Trace: trace,
		// Span IDs are minted randomly, like trace IDs: a trace's spans
		// come from several processes (each with its own registry), so a
		// per-registry counter would hand every process's first span the
		// same ID and the collector would merge them as duplicates.
		ID:     SpanID(nonZero(rand.Uint64())),
		Parent: parent,
		Name:   name,
		Kind:   kind,
		Start:  r.spanNow(),
		reg:    r,
	}
}

// nonZero keeps zero free as the "no trace" sentinel of the frame
// header.
func nonZero(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

// End closes the span: its duration lands in the span_ns histogram
// (per operation and kind) and the finished span enters the ring
// buffer the exposition endpoint prints. End is idempotent; err may be
// nil. A nil span is a no-op, so callers on untraced paths need no
// branches.
func (s *Span) End(err error) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Dur = s.reg.spanNow().Sub(s.Start)
	if err != nil {
		s.Err = err.Error()
	}
	s.reg.spanHist(s.Name, s.Kind).Observe(s.Dur)
	s.reg.recordSpan(s)
}

// spanHistKey identifies one span_ns histogram in the handle cache.
type spanHistKey struct{ name, kind string }

// spanHist resolves the span_ns histogram for a (name, kind) pair
// through an allocation-free cache: Span.End sits on every RPC
// completion, and without the cache each End would re-render the
// label string and take the main registry lock. The first End for a
// pair pays the full lookup; every later one is a read-locked map hit.
func (r *Registry) spanHist(name, kind string) *Histogram {
	key := spanHistKey{name, kind}
	r.spanHistMu.RLock()
	h := r.spanHists[key]
	r.spanHistMu.RUnlock()
	if h != nil {
		return h
	}
	h = r.Histogram("span_ns", "span", name, "kind", kind)
	r.spanHistMu.Lock()
	if cached := r.spanHists[key]; cached != nil {
		h = cached
	} else {
		if r.spanHists == nil {
			r.spanHists = make(map[spanHistKey]*Histogram)
		}
		r.spanHists[key] = h
	}
	r.spanHistMu.Unlock()
	return h
}

func (r *Registry) recordSpan(s *Span) {
	r.spanMu.Lock()
	r.spans[r.spanHead] = s
	r.spanHead = (r.spanHead + 1) % spanRingSize
	if r.spanLen < spanRingSize {
		r.spanLen++
	}
	r.spanMu.Unlock()
	// The sink (a span exporter, when one is attached) runs outside the
	// ring lock and is required to be non-blocking: End is on the RPC
	// hot path.
	if fn := r.spanSink.Load(); fn != nil {
		(*fn)(s)
	}
}

// SetSpanClock replaces the time source spans are stamped with; nil
// restores the wall clock. It is for runs that must attribute latency
// exactly: with a clock that moves only where the run moves it, span
// durations carry the injected delays and none of the host's
// scheduling noise.
func (r *Registry) SetSpanClock(now func() time.Time) {
	if now == nil {
		r.spanClock.Store(nil)
		return
	}
	clock := now //mits:allow atomicmix boxed before publication, never touched again
	r.spanClock.Store(&clock)
}

// spanNow reads the span clock.
func (r *Registry) spanNow() time.Time {
	if fn := r.spanClock.Load(); fn != nil {
		return (*fn)()
	}
	return time.Now()
}

// SetSpanSink installs fn to be called with every span finished in
// this registry — the tap a trace exporter hangs off. fn runs on the
// goroutine calling Span.End and therefore must never block (enqueue
// and drop, don't wait). A nil fn detaches the sink.
func (r *Registry) SetSpanSink(fn func(*Span)) {
	if fn == nil {
		r.spanSink.Store(nil)
		return
	}
	// Func values cannot live in an atomic.Pointer directly, so a copy
	// is boxed and only the pointer is ever shared; the write below
	// publishes it before any reader can hold the address.
	sink := fn //mits:allow atomicmix boxed before publication, never touched again
	r.spanSink.Store(&sink)
}

// Spans returns the finished spans still in the ring buffer, oldest
// first.
func (r *Registry) Spans() []*Span {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]*Span, 0, r.spanLen)
	start := (r.spanHead - r.spanLen + spanRingSize) % spanRingSize
	for i := 0; i < r.spanLen; i++ {
		out = append(out, r.spans[(start+i)%spanRingSize])
	}
	return out
}

// SpansOf filters the ring buffer to one trace, oldest first — the
// cross-site "follow one GetDocument" view.
func (r *Registry) SpansOf(trace TraceID) []*Span {
	var out []*Span
	for _, s := range r.Spans() {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}
