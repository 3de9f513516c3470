package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRingSize bounds the finished-span buffer each registry keeps for
// exposition. 256 spans cover the recent RPC history of a busy server
// without unbounded growth.
const spanRingSize = 256

// Registry holds one process's metrics and recent trace spans. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	site atomic.Pointer[string] // site name stamped on logs and exposition

	// samplerMu guards the runtime-sampler refcount: several stats
	// servers may serve one registry, but only one sampler may run —
	// a second would observe every GC pause again and double-count
	// runtime_gc_pause_ns (see startRuntimeSampler).
	samplerMu   sync.Mutex
	samplerRefs int
	samplerStop func()

	spanMu   sync.Mutex
	spans    [spanRingSize]*Span // finished spans, ring buffer
	spanHead int                 // next write position
	spanLen  int

	// spanHists caches span_ns histogram handles per (name, kind), so
	// Span.End skips label rendering and the main registry lock (see
	// spanHist). A struct-keyed map under its own RWMutex rather than a
	// sync.Map: the lookup then allocates nothing — no key
	// concatenation, no interface boxing — and End sits on every RPC
	// completion. spanSink, when set, receives every finished span —
	// the exporter tap (see SetSpanSink).
	spanHistMu sync.RWMutex
	spanHists  map[spanHistKey]*Histogram
	spanSink   atomic.Pointer[func(*Span)]
	spanClock  atomic.Pointer[func() time.Time] // see SetSpanClock; nil = wall clock

	logState // see log.go
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.initLog()
	return r
}

// SetSite names the MITS site this process plays (production, author,
// mediastore, navigator, facilitator, or a daemon name like mitsd);
// the name is stamped on every log record and the exposition header.
func (r *Registry) SetSite(site string) { r.site.Store(&site) }

// Site reports the configured site name ("" until SetSite).
func (r *Registry) Site() string {
	if p := r.site.Load(); p != nil {
		return *p
	}
	return ""
}

// metricName renders a base name plus alternating label key/value
// pairs into the canonical exposition form: name{k1="v1",k2="v2"}.
// Odd trailing labels are ignored rather than panicking — a malformed
// metric name must never take down a serving path.
func metricName(name string, labels []string) string {
	if len(labels) < 2 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labels[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// copyLabels snapshots the complete key/value pairs of a labels slice
// (a dangling odd key is dropped, matching metricName) so a metric
// never aliases a caller's mutable slice.
func copyLabels(labels []string) []string {
	n := len(labels) &^ 1
	if n == 0 {
		return nil
	}
	return append([]string(nil), labels[:n]...)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	full := metricName(name, labels)
	r.mu.RLock()
	c, ok := r.counters[full]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[full]; ok {
		return c
	}
	c = &Counter{name: full, base: name, labels: copyLabels(labels)}
	r.counters[full] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	full := metricName(name, labels)
	r.mu.RLock()
	g, ok := r.gauges[full]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[full]; ok {
		return g
	}
	g = &Gauge{name: full, base: name, labels: copyLabels(labels)}
	r.gauges[full] = g
	return g
}

// Histogram returns the named latency histogram, creating it with the
// default bucket layout on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	full := metricName(name, labels)
	r.mu.RLock()
	h, ok := r.hists[full]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[full]; ok {
		return h
	}
	h = newHistogram(full, name, copyLabels(labels))
	r.hists[full] = h
	return h
}

// Counters returns the registered counters sorted by name.
func (r *Registry) Counters() []*Counter {
	r.mu.RLock()
	out := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, c)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Gauges returns the registered gauges sorted by name.
func (r *Registry) Gauges() []*Gauge {
	r.mu.RLock()
	out := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, g)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Histograms returns the registered histograms sorted by name.
func (r *Registry) Histograms() []*Histogram {
	r.mu.RLock()
	out := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
