package transport

import (
	"testing"

	"mits/internal/cache"
	"mits/internal/lint/leaktest"
	"mits/internal/obs"
)

// TestTracePropagatesAcrossHops runs the full three-node delivery
// shape over real TCP — navigator client → edge (a ForwardHandler
// whose DBClient dials the store) → store server — and asserts that
// one call under a minted trace produces one trace whose spans chain
// parent-to-child across every hop:
//
//	client(navigator) → server(edge) → client(edge) → server(store)
//	                                                → internal(store.GetContent)
//
// This is the wire contract the collector's critical path depends on:
// if any hop dropped or re-rooted the context, the trace would
// fragment and the slow hop could not be attributed.
func TestTracePropagatesAcrossHops(t *testing.T) {
	leaktest.Check(t)
	store := testStore(t)

	storeMux := NewMux()
	RegisterStore(storeMux, store)
	storeSrv := NewTCPServer(storeMux)
	storeAddr, err := storeSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer storeSrv.Close()

	up, err := DialTCP(storeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	edge := DBClient{C: up}.WithContentCache(cache.New("tracehop", 1<<20))
	edgeSrv := NewTCPServer(ForwardHandler{DB: edge})
	edgeAddr, err := edgeSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer edgeSrv.Close()

	nav, err := DialTCP(edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nav.Close()

	req := EncodeGetContent("store/v.mpg")
	sc := obs.NewTraceContext()
	trace := sc.Trace
	if _, err := nav.CallInTrace(sc, MethodGetContent, req); err != nil {
		t.Fatal(err)
	}

	spans := obs.Default.SpansOf(trace)
	if len(spans) != 5 {
		t.Fatalf("trace %s has %d spans, want 5: %+v", trace, len(spans), spans)
	}
	byID := make(map[obs.SpanID]*obs.Span, len(spans))
	kinds := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		kinds[s.Kind]++
		if s.Trace != trace {
			t.Errorf("span %s carries trace %s, want %s", s.Name, s.Trace, trace)
		}
	}
	if kinds["client"] != 2 || kinds["server"] != 2 || kinds["internal"] != 1 {
		t.Fatalf("span kinds = %v, want 2 client, 2 server, 1 internal", kinds)
	}

	// Walk each span to the root: every span must reach the navigator's
	// client span, and depth must match its hop.
	wantDepth := map[string]int{"client": 0, "server": 1, "internal": 4}
	var root *obs.Span
	for _, s := range spans {
		depth := 0
		cur := s
		for cur.Parent != 0 {
			p := byID[cur.Parent]
			if p == nil {
				t.Fatalf("span %s/%s has dangling parent %d", s.Name, s.Kind, cur.Parent)
			}
			cur = p
			depth++
		}
		if root == nil {
			root = cur
		} else if cur != root {
			t.Fatalf("span %s/%s reaches root %d, others reach %d", s.Name, s.Kind, cur.ID, root.ID)
		}
		switch {
		case s.Kind == "internal" && depth != wantDepth["internal"]:
			t.Errorf("internal span %s at depth %d, want 4", s.Name, depth)
		case s.Kind == "client" && depth != 0 && depth != 2:
			t.Errorf("client span at depth %d, want 0 or 2", depth)
		case s.Kind == "server" && depth != 1 && depth != 3:
			t.Errorf("server span at depth %d, want 1 or 3", depth)
		}
	}
	if root.Kind != "client" || root.Name != MethodGetContent {
		t.Fatalf("root span = %s/%s, want %s/client", root.Name, root.Kind, MethodGetContent)
	}

	// Second request hits the edge cache: the trace still forms, but
	// stops at the edge — no store-side spans.
	sc2 := obs.NewTraceContext()
	trace2 := sc2.Trace
	if _, err := nav.CallInTrace(sc2, MethodGetContent, req); err != nil {
		t.Fatal(err)
	}
	spans2 := obs.Default.SpansOf(trace2)
	if len(spans2) != 2 {
		t.Fatalf("cache-hit trace has %d spans, want 2 (client+edge server): %+v", len(spans2), spans2)
	}
	for _, s := range spans2 {
		if s.Kind == "internal" {
			t.Errorf("cache-hit trace reached the store: %+v", s)
		}
	}
}
