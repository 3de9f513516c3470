package transport

import (
	"testing"

	"mits/internal/lint/leaktest"

	"mits/internal/obs"
)

// TestFrameV2RoundTrip checks the trace context survives the single
// layout in both kinds. (The layout is the old v2 header under the
// base kind bytes, hence the name.)
func TestFrameV2RoundTrip(t *testing.T) {
	for _, kind := range []frameKind{kindRequest, kindResponse} {
		f := &frame{kind: kind, id: 9, trace: 0xdeadbeefcafe, span: 42, payload: []byte{1, 2, 3}}
		if kind == kindRequest {
			f.method = "db.GetContent"
		} else {
			f.errText = "boom"
		}
		got, err := unmarshalFrame(f.marshal())
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if got.kind != kind || got.trace != f.trace || got.span != f.span || got.id != 9 {
			t.Fatalf("kind %d round trip mangled: %+v", kind, got)
		}
	}
}

// TestFrameV2Truncated makes sure every truncation of a frame, in both
// kinds and whether traced or not, errors instead of reading out of
// bounds — in particular every prefix shorter than the fixed header
// plus the payload length.
func TestFrameV2Truncated(t *testing.T) {
	for _, f := range []*frame{
		{kind: kindRequest, id: 1, trace: 5, span: 6, method: "m"},
		{kind: kindRequest, id: 1, method: "m", payload: []byte("x")},
		{kind: kindResponse, id: 1, trace: 5, span: 6, errText: "e"},
		{kind: kindResponse, id: 1},
	} {
		raw := f.marshal()
		if len(raw) < frameHeader+4 {
			t.Fatalf("frame %+v encodes to %d bytes, below the %d-byte minimum", f, len(raw), frameHeader+4)
		}
		for n := 0; n < len(raw); n++ {
			if _, err := unmarshalFrame(raw[:n]); err == nil {
				t.Fatalf("frame %+v truncated to %d of %d bytes decoded", f, n, len(raw))
			}
		}
	}
}

// TestTraceAcrossTCP drives a real TCP round trip and checks the
// client and server spans land in the registry under one shared trace
// ID, with the server span parented on the client span — the
// acceptance path for following one GetDocument across sites.
func TestTraceAcrossTCP(t *testing.T) {
	leaktest.Check(t)
	mux := NewMux()
	mux.Register("echo", func(_ string, p []byte) ([]byte, error) { return p, nil })
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	sc := obs.NewTraceContext()
	if _, err := cli.CallInTrace(sc, "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	trace := sc.Trace

	spans := obs.Default.SpansOf(trace)
	var client, server *obs.Span
	for _, s := range spans {
		switch s.Kind {
		case "client":
			client = s
		case "server":
			server = s
		}
	}
	if client == nil || server == nil {
		t.Fatalf("want client+server spans for trace %s, got %d spans", trace, len(spans))
	}
	if client.Name != "echo" || server.Name != "echo" {
		t.Fatalf("span names: client=%q server=%q", client.Name, server.Name)
	}
	if server.Parent != client.ID {
		t.Fatalf("server span parent %s, want client span %s", server.Parent, client.ID)
	}
	if client.Dur <= 0 || server.Dur < 0 {
		t.Fatalf("span durations not recorded: client=%v server=%v", client.Dur, server.Dur)
	}

	// The latency histograms fed by the same round trip must be
	// non-empty on both sides.
	for _, name := range []string{"transport_client_latency_ns", "transport_server_latency_ns"} {
		h := obs.GetHistogram(name, "method", "echo")
		if h.Count() == 0 {
			t.Fatalf("%s empty after a round trip", name)
		}
		if s := h.Snapshot(); s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 {
			t.Fatalf("%s percentiles inconsistent: %+v", name, s)
		}
	}
}

// TestTraceAcrossATM checks trace propagation on the experiment-path
// carrier too: the server span recorded while handling an ATM RPC
// joins the trace opened by Go.
func TestTraceAcrossATM(t *testing.T) {
	leaktest.Check(t)
	n, client, server := atmTestNet(t)
	mux := NewMux()
	mux.Register("echo", func(_ string, p []byte) ([]byte, error) { return p, nil })
	sess, err := OpenATMSession(n, client, server, mux, ATMSessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := sess.CallOver("echo", []byte("y")); err != nil {
		t.Fatal(err)
	}
	// The registry is a ring buffer that earlier tests may have filled
	// past its capacity, so index arithmetic from "before the call" is
	// unreliable; the call just made is simply the newest client span
	// with our name.
	var trace obs.TraceID
	spans := obs.Default.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == "echo" && spans[i].Kind == "client" {
			trace = spans[i].Trace
			break
		}
	}
	if trace == 0 {
		t.Fatal("no client span recorded for the ATM call")
	}
	foundServer := false
	for _, s := range obs.Default.SpansOf(trace) {
		if s.Kind == "server" {
			foundServer = true
		}
	}
	if !foundServer {
		t.Fatalf("trace %s has no server span on the ATM path", trace)
	}
}
