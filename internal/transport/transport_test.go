package transport

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"mits/internal/lint/leaktest"
	"testing/quick"
	"time"

	"mits/internal/atm"
	"mits/internal/mediastore"
)

// TestFrameRoundTrip covers the one frame layout: both kinds, traced
// and untraced, each encoding to the fixed header plus its variable
// parts and decoding field for field.
func TestFrameRoundTrip(t *testing.T) {
	cases := []*frame{
		{kind: kindRequest, id: 1, method: "db.Get_List_Doc"},
		{kind: kindRequest, id: 42, method: "m", payload: []byte("payload")},
		{kind: kindRequest, id: 43, trace: 0xfeed, span: 7, method: "m", payload: []byte("traced")},
		{kind: kindResponse, id: 42, payload: []byte{0, 1, 2}},
		{kind: kindResponse, id: 7, errText: "not found"},
		{kind: kindResponse, id: 43, trace: 0xfeed, span: 7, payload: []byte("traced")},
		{kind: kindResponse, id: 44, trace: 0xfeed, span: 8, errText: "traced failure"},
	}
	for _, f := range cases {
		raw := f.marshal()
		name := f.method + f.errText
		if want := frameHeader + len(name) + 4 + len(f.payload); len(raw) != want || f.wireSize() != want {
			t.Errorf("%+v encodes to %d bytes (wireSize %d), want %d", f, len(raw), f.wireSize(), want)
		}
		got, err := unmarshalFrame(raw)
		if err != nil {
			t.Fatalf("unmarshal(%+v): %v", f, err)
		}
		if got.kind != f.kind || got.id != f.id || got.trace != f.trace || got.span != f.span ||
			got.method != f.method || got.errText != f.errText || !bytes.Equal(got.payload, f.payload) {
			t.Errorf("round trip %+v → %+v", f, got)
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	if _, err := unmarshalFrame(nil); err == nil {
		t.Error("nil frame accepted")
	}
	f := &frame{kind: kindRequest, id: 1, method: "m", payload: []byte("x")}
	body := f.marshal()
	// Unknown kinds are rejected even under an otherwise well-formed
	// frame — including 3–6, the retired versioned kinds.
	for _, kind := range []byte{0, 3, 4, 5, 6, 9, 255} {
		bad := append([]byte(nil), body...)
		bad[0] = kind
		if _, err := unmarshalFrame(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("kind %d: got %v, want ErrBadFrame", kind, err)
		}
	}
	if _, err := unmarshalFrame(body[:len(body)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestFrameFuzzProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = unmarshalFrame(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMux(t *testing.T) {
	m := NewMux()
	m.Register("echo", func(_ string, p []byte) ([]byte, error) { return p, nil })
	out, err := m.Handle("echo", []byte("hi"))
	if err != nil || string(out) != "hi" {
		t.Errorf("echo: %q %v", out, err)
	}
	if _, err := m.Handle("nope", nil); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown method err=%v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	m.Register("echo", func(string, []byte) ([]byte, error) { return nil, nil })
}

func testStore(t *testing.T) *mediastore.Store {
	t.Helper()
	s := mediastore.New()
	if _, err := s.PutDocument("atm-course", "ATM", "asn1", []byte("course-bytes"), "network/atm"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutContent("store/v.mpg", "MPEG", bytes.Repeat([]byte("v"), 100000)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDBOverLoopback(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	db := DBClient{C: Loopback{H: mux}}
	exerciseDB(t, db)
}

func TestDBOverTCP(t *testing.T) {
	leaktest.Check(t)
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	exerciseDB(t, DBClient{C: client})
}

func exerciseDB(t *testing.T, db DBClient) {
	t.Helper()
	names, err := db.GetListDoc()
	if err != nil || len(names) != 1 || names[0] != "atm-course" {
		t.Fatalf("GetListDoc=%v err=%v", names, err)
	}
	rec, err := db.GetSelectedDoc("atm-course")
	if err != nil || string(rec.Data) != "course-bytes" {
		t.Fatalf("GetSelectedDoc=%+v err=%v", rec, err)
	}
	if _, err := db.GetSelectedDoc("missing"); err == nil {
		t.Error("missing doc fetch succeeded")
	} else if !strings.Contains(err.Error(), "not found") {
		t.Errorf("error lost fidelity across the wire: %v", err)
	}
	tree, err := db.GetKeywordTree()
	if err != nil || len(tree.Children) == 0 {
		t.Fatalf("GetKeywordTree=%+v err=%v", tree, err)
	}
	byKw, err := db.GetDocByKeyword("network")
	if err != nil || len(byKw) != 1 {
		t.Fatalf("GetDocByKeyword=%v err=%v", byKw, err)
	}
	content, err := db.GetContent("store/v.mpg")
	if err != nil || len(content.Data) != 100000 {
		t.Fatalf("GetContent len=%d err=%v", len(content.Data), err)
	}
	// Author/producer round trip.
	v, err := db.PutDocument("new-course", "New", "asn1", []byte("d"), "misc")
	if err != nil || v != 1 {
		t.Fatalf("PutDocument v=%d err=%v", v, err)
	}
	if err := db.PutContent("store/new.wav", "WAV", []byte("audio")); err != nil {
		t.Fatal(err)
	}
	got, err := db.FetchContent("store/new.wav")
	if err != nil || string(got) != "audio" {
		t.Fatalf("FetchContent=%q err=%v", got, err)
	}
	if _, err := db.FetchContent("store/zzz"); err == nil {
		t.Error("FetchContent of missing ref succeeded")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	leaktest.Check(t)
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialTCP(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			db := DBClient{C: c}
			for j := 0; j < 20; j++ {
				if _, err := db.GetSelectedDoc("atm-course"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	leaktest.Check(t)
	mux := NewMux()
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := client.Call("x", nil); err == nil {
		t.Error("call on closed server succeeded")
	}
	client.Close()
}

// atmTestNet builds a user host and a server host joined by one switch.
func atmTestNet(t *testing.T) (*atm.Network, *atm.Host, *atm.Host) {
	t.Helper()
	n := atm.New()
	user := n.AddHost("user")
	db := n.AddHost("db")
	sw := n.AddSwitch("sw")
	n.Connect(user, sw, 155e6, 500*time.Microsecond)
	n.Connect(sw, db, 155e6, 500*time.Microsecond)
	return n, user, db
}

func TestDBOverATM(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	n, user, db := atmTestNet(t)
	sess, err := OpenATMSession(n, user, db, mux, ATMSessionOptions{ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Small call.
	payload, err := sess.CallOver(MethodListDocs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := DecodeNameList(payload); err != nil || len(names) != 1 {
		t.Fatalf("names=%v err=%v", names, err)
	}

	// Large content fetch: 100 kB crosses the chunking path.
	payload, err = sess.CallOver(MethodGetContent, EncodeGetContent("store/v.mpg"))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := DecodeContentRecord(payload); err != nil || len(rec.Data) != 100000 {
		t.Fatalf("content record=%v err=%v", rec != nil, err)
	}

	// Errors cross the ATM path too.
	if _, err := sess.CallOver(MethodGetDoc, EncodeGetDoc("missing")); err == nil {
		t.Error("missing doc over ATM succeeded")
	}
	if sess.Pending() != 0 {
		t.Errorf("pending=%d after all calls", sess.Pending())
	}
	reqB, rspB := sess.Traffic()
	if reqB == 0 || rspB < 100000 {
		t.Errorf("traffic accounting req=%d rsp=%d", reqB, rspB)
	}
}

// TestATMFrameVolumePinned pins ATM frame sizing on a synthetic
// 6,567-byte response payload: it must travel as a 6,600-byte frame
// (the 29-byte header, an empty name, the 4-byte payload length) in
// 138 cells.
func TestATMFrameVolumePinned(t *testing.T) {
	const record = 6567
	mux := NewMux()
	mux.Register(MethodGetDoc, func(string, []byte) ([]byte, error) { return make([]byte, record), nil })
	n, user, db := atmTestNet(t)
	sess, err := OpenATMSession(n, user, db, mux, ATMSessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.CallOver(MethodGetDoc, []byte("atm-course")); err != nil {
		t.Fatal(err)
	}
	_, rsp := sess.Traffic()
	_, s2c := sess.Metrics()
	if rsp != 6600 || s2c.CellsSent != 138 {
		t.Fatalf("response frame %d bytes in %d cells, want 6600 bytes in 138 cells", rsp, s2c.CellsSent)
	}
}

func TestATMCallLatencyReflectsNetwork(t *testing.T) {
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)
	n, user, db := atmTestNet(t)
	sess, err := OpenATMSession(n, user, db, mux, ATMSessionOptions{ServiceTime: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := n.Clock().Now()
	if _, err := sess.CallOver(MethodListDocs, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := n.Clock().Now().Sub(start)
	// 2×500µs propagation each way + 2ms service + serialization ≥ 4ms.
	if elapsed < 4*time.Millisecond {
		t.Errorf("call completed in %v, faster than physics allows", elapsed)
	}
	if elapsed > 20*time.Millisecond {
		t.Errorf("call took %v, suspiciously slow", elapsed)
	}
}

func TestATMSessionAdmissionFailure(t *testing.T) {
	n, user, db := atmTestNet(t)
	// Demand more guaranteed bandwidth than the 155 Mb/s links carry.
	_, err := OpenATMSession(n, user, db, NewMux(), ATMSessionOptions{
		Contract: atm.CBRContract(200e6),
	})
	if !errors.Is(err, atm.ErrAdmissionDenied) {
		t.Errorf("err=%v, want admission denied", err)
	}
}

func TestATMSessionSurvivesResponseLoss(t *testing.T) {
	// A lossy path breaks a chunked response; CallOver must fail
	// loudly ("never completed") rather than hang or return garbage,
	// and a later call on a clean path still works.
	store := testStore(t)
	mux := NewMux()
	RegisterStore(mux, store)

	n := atm.New()
	n.BufferCells = 16 // tiny buffers: the big response overflows
	user := n.AddHost("user")
	db := n.AddHost("db")
	sw := n.AddSwitch("sw")
	x1 := n.AddHost("x1")
	x2 := n.AddHost("x2")
	n.Connect(user, sw, 155e6, 500*time.Microsecond)
	n.Connect(sw, db, 2e6, 500*time.Microsecond) // slow server link
	n.Connect(x1, sw, 155e6, 500*time.Microsecond)
	n.Connect(sw, x2, 155e6, 500*time.Microsecond)

	sess, err := OpenATMSession(n, user, db, mux, ATMSessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Flood the server→user direction is what matters: responses travel
	// db→sw→user; congest sw→user? The flood x1→x2 shares sw only.
	// Instead overload the session's own response path: issue many
	// large fetches at once so the 16-cell buffer drops chunks.
	req := EncodeGetContent("store/v.mpg")
	errs := 0
	done := 0
	for i := 0; i < 8; i++ {
		sess.Go(MethodGetContent, req, func(p []byte, err error) {
			if err != nil {
				errs++
			}
			done++
		})
	}
	n.Clock().Run()
	if done == 8 && errs == 0 {
		t.Skip("no loss induced on this topology; nothing to assert")
	}
	// Some calls never completed (chunks lost) — they are still pending.
	if sess.Pending() == 0 && errs == 0 {
		t.Error("loss occurred but every call completed cleanly")
	}
}

func TestLoopbackErrorPropagation(t *testing.T) {
	mux := NewMux()
	mux.Register("boom", func(string, []byte) ([]byte, error) {
		return nil, errors.New("kaput")
	})
	if _, err := (Loopback{H: mux}).Call("boom", nil); err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("err=%v", err)
	}
	if err := (Loopback{}).Close(); err != nil {
		t.Error(err)
	}
}

// TestDialTCPConnectBounded pins the connect timeout on DialTCP. The
// target is a TEST-NET-1 address (RFC 5737: never routed), so the SYN
// either black-holes or the local stack refuses it immediately; with
// the timeout applied the call must fail fast either way. Reverting to
// an unbounded net.Dial hangs this test for the OS connect default on
// any host where the address black-holes.
func TestDialTCPConnectBounded(t *testing.T) {
	old := DialTimeout
	DialTimeout = 100 * time.Millisecond
	defer func() { DialTimeout = old }()
	start := time.Now()
	c, err := DialTCP("192.0.2.1:9")
	elapsed := time.Since(start)
	if err == nil {
		c.Close()
		t.Skip("TEST-NET-1 address unexpectedly reachable on this host")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("DialTCP to a black-holed address took %v; connect timeout not applied", elapsed)
	}
}
