package transport

import (
	"fmt"
	"sync"
	"testing"

	"mits/internal/lint/leaktest"
	"mits/internal/obs"
)

// TestCallPathsAgree runs every synchronous carrier through its three
// call entry points. Call, CallInTrace and CallInTracePooled must
// return the same payload, because the first two are projections of
// the third. Under obs.NewTraceContext the handler must see the minted
// trace, and a carrier that opens a client span must make it the
// trace's root and the parent of the handler's context. Concurrent
// calls under distinct minted traces must each keep their own.
func TestCallPathsAgree(t *testing.T) {
	leaktest.Check(t)
	// seen records, per trace, the span context the handler received.
	var seen sync.Map
	mux := NewMux()
	mux.RegisterCtx("echo", func(sc obs.SpanContext, _ string, p []byte) ([]byte, error) {
		seen.Store(sc.Trace, sc)
		return append([]byte(nil), p...), nil
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dial := func() (Client, error) { return DialTCP(addr) }
	carriers := []struct {
		name string
		open func() (Client, error)
	}{
		{"loopback", func() (Client, error) { return Loopback{H: mux}, nil }},
		{"tcp", dial},
		{"pool", func() (Client, error) { return DialTCPPool(addr, 2) }},
		{"retry", func() (Client, error) { return NewRetryClient(dial, RetryPolicy{}, 1), nil }},
		{"breaker", func() (Client, error) {
			c, err := DialTCP(addr)
			return WithBreaker(c, NewBreaker("calls-test", 0, 0)), err
		}},
	}
	for _, cr := range carriers {
		t.Run(cr.name, func(t *testing.T) {
			c, err := cr.open()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			want := "payload-" + cr.name
			out, err := c.Call("echo", []byte(want))
			if err != nil || string(out) != want {
				t.Fatalf("Call: %q %v", out, err)
			}
			sc := obs.NewTraceContext()
			out, err = CallInTrace(c, sc, "echo", []byte(want))
			if err != nil || string(out) != want {
				t.Fatalf("CallInTrace: %q %v", out, err)
			}
			checkRoot(t, &seen, sc.Trace)
			sc = obs.NewTraceContext()
			out, rel, err := CallInTracePooled(c, sc, "echo", []byte(want))
			if err != nil || string(out) != want {
				t.Fatalf("CallInTracePooled: %q %v", out, err)
			}
			if rel != nil {
				rel()
			}
			checkRoot(t, &seen, sc.Trace)

			const calls = 16
			traces := make([]obs.TraceID, calls)
			var wg sync.WaitGroup
			for i := range traces {
				sc := obs.NewTraceContext()
				traces[i] = sc.Trace
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					want := fmt.Sprintf("call-%d", i)
					if out, err := CallInTrace(c, sc, "echo", []byte(want)); err != nil || string(out) != want {
						t.Errorf("concurrent call %d: %q %v", i, out, err)
					}
				}(i)
			}
			wg.Wait()
			distinct := make(map[obs.TraceID]bool, calls)
			for _, tr := range traces {
				if distinct[tr] {
					t.Fatalf("trace %s minted twice", tr)
				}
				distinct[tr] = true
				checkRoot(t, &seen, tr)
			}
		})
	}
}

// checkRoot verifies that the handler ran under trace, and that a
// client span opened for the call, if any, is the trace's root and
// parents the handler's context.
func checkRoot(t *testing.T, seen *sync.Map, trace obs.TraceID) {
	t.Helper()
	v, ok := seen.Load(trace)
	if !ok {
		t.Fatalf("handler never saw trace %s", trace)
	}
	handlerCtx := v.(obs.SpanContext)
	for _, s := range obs.Default.SpansOf(trace) {
		if s.Kind != "client" {
			continue
		}
		if s.Parent != 0 {
			t.Fatalf("trace %s: client span has parent %s, want the root", trace, s.Parent)
		}
		var server *obs.Span
		for _, s2 := range obs.Default.SpansOf(trace) {
			if s2.Kind == "server" {
				server = s2
			}
		}
		if server == nil || server.Parent != s.ID || handlerCtx.Parent != server.ID {
			t.Fatalf("trace %s: server span %+v not parented on client span %s (handler parent %s)",
				trace, server, s.ID, handlerCtx.Parent)
		}
		return
	}
	if handlerCtx.Parent != 0 {
		t.Fatalf("trace %s: no client span, yet the handler's context has parent %s", trace, handlerCtx.Parent)
	}
}
