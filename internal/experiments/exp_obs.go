package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"mits/internal/cache"
	"mits/internal/faults"
	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/obs/collect"
	"mits/internal/transport"
)

// stallMux interposes a handler-level stall on the store's GetContent
// before delegating to the real mux, keeping the injected latency
// inside the store's *server* span — the placement that lets the
// collector's critical path attribute it to the right hop. The stall
// is a real wait and also moves the span clock by the same amount.
type stallMux struct {
	mux   *transport.Mux
	inj   *faults.Injector
	clock *spanClock
}

func (s stallMux) Handle(method string, payload []byte) ([]byte, error) {
	return s.HandleCtx(obs.SpanContext{}, method, payload)
}

func (s stallMux) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	if method == transport.MethodGetContent {
		if d := s.inj.CallStall(method); d > 0 {
			time.Sleep(d) //mits:allow sleepless injected store-side stall is a real wall-clock wait
			s.clock.advance(d)
		}
	}
	return s.mux.HandleCtx(sc, method, payload)
}

// spanClock is E30's controlled span clock: it stands still except
// where the experiment moves it, so span durations carry exactly the
// injected stall and none of the host's scheduling noise (on a loaded
// host, goroutine wake-ups alone can add milliseconds to every hop).
type spanClock struct {
	base time.Time
	off  atomic.Int64 // nanoseconds advanced so far
}

func (c *spanClock) now() time.Time { return c.base.Add(time.Duration(c.off.Load())) }

func (c *spanClock) advance(d time.Duration) { c.off.Add(int64(d)) }

// E30TraceCollection reproduces the operational question behind the
// trace pipeline (DESIGN §11): a student's video request is slow —
// *which site* is eating the time? Three nodes run over loopback TCP:
// a navigator client, an edge forwarder with a content cache (cold, so
// the request travels the full chain), and the store, where a 50ms
// handler stall is injected. Every finished span is exported over the
// same RPC transport to a collector whose tail sampler keeps the slow
// trace and drops the healthy control call; the assembled trace's
// critical path must put ≥90% of the root's latency in the store's
// server span, localizing the stall to the correct hop and side. Spans
// are timed on a controlled clock that only the stall moves, so the
// shares depend on where the stall sits in the trace, not on host load.
func E30TraceCollection() (*Report, error) {
	r := &Report{
		ID: "E30", Figure: "DESIGN §11", Title: "Cross-site trace collection localizes a store-side stall",
		Header: []string{"hop", "kind", "dur", "self", "share"},
		Pass:   true,
	}
	const (
		stall         = 50 * time.Millisecond
		slowThreshold = 25 * time.Millisecond
	)

	clock := &spanClock{base: time.Now()}
	obs.Default.SetSpanClock(clock.now)
	defer obs.Default.SetSpanClock(nil)

	// Store node, with the injected stall in front of the real mux.
	store := mediastore.New()
	if err := store.PutContent("store/v.mpg", "MPEG", make([]byte, 64<<10)); err != nil {
		return nil, err
	}
	storeMux := transport.NewMux()
	transport.RegisterStore(storeMux, store)
	inj := faults.NewInjector(faults.Scenario{StallProb: 1, StallFor: stall}, 30)
	storeSrv := transport.NewTCPServer(stallMux{mux: storeMux, inj: inj, clock: clock})
	storeAddr, err := storeSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer storeSrv.Close() //mits:allow errdrop experiment teardown

	// Edge node: forwards to the store through a cold content cache.
	up, err := transport.DialTCP(storeAddr)
	if err != nil {
		return nil, err
	}
	defer up.Close() //mits:allow errdrop experiment teardown
	edge := transport.DBClient{C: up}.WithContentCache(cache.New("e30-edge", 1<<20))
	edgeSrv := transport.NewTCPServer(transport.ForwardHandler{DB: edge})
	edgeAddr, err := edgeSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer edgeSrv.Close() //mits:allow errdrop experiment teardown

	// Collector node, fed by an exporter tapping this process's spans.
	col := collect.NewCollector(collect.RetainPolicy{SlowThreshold: slowThreshold, SampleRate: 0})
	defer col.Close() //mits:allow errdrop experiment teardown
	colMux := transport.NewMux()
	col.Register(colMux)
	colSrv := transport.NewTCPServer(colMux)
	colAddr, err := colSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer colSrv.Close() //mits:allow errdrop experiment teardown
	exp := collect.StartExporter(obs.Default, collect.Dial(colAddr), collect.ExporterOptions{Site: "mits"})
	defer exp.Close() //mits:allow errdrop experiment teardown

	// Navigator node: one slow content request (travels all hops, hits
	// the stall) and one healthy control call (no stall on ListDocs).
	nav, err := transport.DialTCP(edgeAddr)
	if err != nil {
		return nil, err
	}
	defer nav.Close() //mits:allow errdrop experiment teardown
	req := transport.EncodeGetContent("store/v.mpg")
	slow, control := obs.NewTraceContext(), obs.NewTraceContext()
	slowTrace, controlTrace := slow.Trace, control.Trace
	if _, err := nav.CallInTrace(slow, transport.MethodGetContent, req); err != nil {
		return nil, err
	}
	if _, err := nav.CallInTrace(control, transport.MethodListDocs, nil); err != nil {
		return nil, err
	}

	// Drain the pipeline deterministically: flush the exporter's queue
	// through the RPC, then finalize every pending trace.
	exp.Flush()
	col.Sweep(0)

	tr := col.Get(slowTrace)
	if tr == nil {
		r.Pass = false
		r.Notes = append(r.Notes, fmt.Sprintf("slow trace %s NOT retained", slowTrace))
		return r, nil
	}
	r.Notes = append(r.Notes, fmt.Sprintf("slow trace %s retained (reason=%s, %d spans)", tr.ID, tr.Reason, len(tr.Spans)))
	if tr.Reason != "slow" {
		r.Pass = false
	}

	// The critical path must localize the stall: the step owning the
	// most self-time has to be a server-kind span holding ≥90% of the
	// root's duration.
	var worst collect.CriticalStep
	for _, step := range tr.Critical {
		share := float64(step.Self) / float64(tr.Dur)
		r.Rows = append(r.Rows, []string{
			step.Span.Name, step.Span.Kind, dur(time.Duration(step.Span.DurNS)),
			dur(step.Self), fmt.Sprintf("%.1f%%", share*100),
		})
		if step.Self > worst.Self {
			worst = step
		}
	}
	if worst.Span == nil || worst.Span.Kind != "server" || float64(worst.Self) < 0.9*float64(tr.Dur) {
		r.Pass = false
		r.Notes = append(r.Notes, "critical path did not localize the stall to a server span with >=90% share")
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf("stall localized: %s %s span owns %.1f%% of %v",
			worst.Span.Name, worst.Span.Kind, 100*float64(worst.Self)/float64(tr.Dur), dur(tr.Dur)))
	}

	// Tail sampling: the healthy control call must have been dropped.
	if ctr := col.Get(controlTrace); ctr != nil {
		r.Pass = false
		r.Notes = append(r.Notes, fmt.Sprintf("control trace retained (reason=%s), want sampled out", ctr.Reason))
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf("control trace %s sampled out (healthy, under threshold)", controlTrace))
	}

	// The flight-recorder view renders the same verdict over HTTP.
	webmux := http.NewServeMux()
	col.Mount(webmux)
	rec := httptest.NewRecorder()
	webmux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?id="+slowTrace.String(), nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "critical path:") {
		r.Pass = false
		r.Notes = append(r.Notes, fmt.Sprintf("/trace?id= view failed: status %d", rec.Code))
	}
	return r, nil
}
