package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mits/internal/faults"
	"mits/internal/lint/leaktest"
)

// --- pipelining behaviour over real TCP ---

// pipelineServer starts an echo-style server whose "block" method
// parks until release is closed, for tests that need calls held in
// flight deterministically.
func pipelineServer(t *testing.T, release chan struct{}, inFlight *atomic.Int64) (*TCPServer, string) {
	t.Helper()
	mux := NewMux()
	mux.Register("echo", func(_ string, p []byte) ([]byte, error) { return p, nil })
	mux.Register("block", func(_ string, p []byte) ([]byte, error) {
		if inFlight != nil {
			inFlight.Add(1)
		}
		<-release
		return p, nil
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// TestPipelinedOutOfOrderCompletion is the tentpole's acceptance
// shape: with one call parked in the server, later calls on the same
// connection still complete — responses are matched by correlation ID,
// not arrival order.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	blocked := make(chan error, 1)
	go func() {
		_, err := cli.Call("block", []byte("held"))
		blocked <- err
	}()
	waitFor(t, func() bool { return parked.Load() == 1 })

	// Neighbours must complete while "block" is still in flight.
	for i := 0; i < 8; i++ {
		out, err := cli.Call("echo", []byte{byte(i)})
		if err != nil {
			t.Fatalf("echo %d behind a blocked call: %v", i, err)
		}
		if len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("echo %d returned %v", i, out)
		}
	}
	select {
	case err := <-blocked:
		t.Fatalf("blocked call completed early: %v", err)
	default:
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked call failed after release: %v", err)
	}
}

// TestUnknownCorrelationResponse hand-speaks the server side of the
// protocol: a response bearing a correlation ID nobody is waiting for
// must be counted and dropped, and the connection must stay usable for
// the real response behind it.
func TestUnknownCorrelationResponse(t *testing.T) {
	leaktest.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		req, err := readFrame(conn, false)
		if err != nil {
			srvErr <- err
			return
		}
		// First a response for a correlation ID that was never issued…
		bogus := &frame{kind: kindResponse, id: 9999, payload: []byte("ghost")}
		if err := writeFrame(conn, bogus); err != nil {
			srvErr <- err
			return
		}
		// …then the real one.
		real := &frame{kind: kindResponse, id: req.id, payload: req.payload}
		srvErr <- writeFrame(conn, real)
	}()

	before := obsUnknownCorr.Value()
	cli := mustDial(t, ln.Addr().String())
	defer cli.Close()
	out, err := cli.Call("echo", []byte("hi"))
	if err != nil {
		t.Fatalf("call after bogus response: %v", err)
	}
	if string(out) != "hi" {
		t.Fatalf("payload %q", out)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
	if got := obsUnknownCorr.Value() - before; got != 1 {
		t.Fatalf("unknown-corr counter moved by %d, want 1", got)
	}
}

// TestConnDeathFailsAllInFlight parks 10 calls in the server, severs
// the connection, and requires every one of them to fail with the
// typed ErrPeerClosed — the pending-call map drains exactly once.
func TestConnDeathFailsAllInFlight(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const calls = 10
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := cli.Call("block", nil)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return parked.Load() == calls })

	// Close severs the connections first (failing the client's pending
	// map immediately), then drains serving goroutines — which are
	// still parked in the handler, so run it aside and unpark them only
	// after every call has reported its typed failure.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for i := 0; i < calls; i++ {
		err := <-errs
		if !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("in-flight call %d: got %v, want ErrPeerClosed", i, err)
		}
		var ce *CallError
		if !errors.As(err, &ce) || ce.Method != "block" {
			t.Fatalf("in-flight call %d: not a typed CallError: %v", i, err)
		}
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("server close: %v", err)
	}
}

// TestInjectedStallDoesNotBlockNeighbors drives the fault injector's
// RPC hook against one method while neighbours run clean: the stalled
// call must be the only slow one. (A conn-level read stall would park
// the shared reader goroutine — head-of-line by construction — so
// per-call stalls are injected where they land in production: in the
// handler.)
func TestInjectedStallDoesNotBlockNeighbors(t *testing.T) {
	leaktest.Check(t)
	const stallFor = 300 * time.Millisecond
	inj := faults.NewInjector(faults.Scenario{Name: "stall-one", Latency: stallFor}, 1)
	mux := NewMux()
	mux.Register("echo", func(_ string, p []byte) ([]byte, error) { return p, nil })
	mux.Register("slow", func(_ string, p []byte) ([]byte, error) {
		delay, drop, err := inj.RPC("slow")
		if err != nil || drop {
			return nil, fmt.Errorf("unexpected injector verdict: drop=%v err=%v", drop, err)
		}
		time.Sleep(delay) //mits:allow sleepless injected per-call stall under test
		return p, nil
	})
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

	start := time.Now()
	slowDone := make(chan time.Duration, 1)
	go func() {
		if _, err := cli.Call("slow", nil); err != nil {
			t.Errorf("stalled call failed: %v", err)
		}
		slowDone <- time.Since(start)
	}()
	var wg sync.WaitGroup
	var fastMax atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Call("echo", nil); err != nil {
				t.Errorf("neighbour failed: %v", err)
			}
			for {
				d := int64(time.Since(start))
				prev := fastMax.Load()
				if d <= prev || fastMax.CompareAndSwap(prev, d) {
					return
				}
			}
		}()
	}
	wg.Wait()
	slow := <-slowDone
	if slow < stallFor {
		t.Fatalf("stalled call finished in %v, before the %v stall", slow, stallFor)
	}
	if fast := time.Duration(fastMax.Load()); fast >= stallFor {
		t.Fatalf("neighbours took %v — convoyed behind the %v stall", fast, stallFor)
	}
}

// TestCallTimeoutKeepsConnection checks the per-call deadline story:
// a timed-out call abandons its pending entry, the late response is
// dropped by correlation ID, and the same connection keeps serving.
func TestCallTimeoutKeepsConnection(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Timeout = 50 * time.Millisecond

	_, err = cli.Call("block", nil)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("got %v, want ErrCallTimeout", err)
	}
	before := obsUnknownCorr.Value()
	close(release) // the late response arrives now, for a call nobody waits on
	waitFor(t, func() bool { return obsUnknownCorr.Value() > before })

	out, err := cli.Call("echo", []byte("still alive"))
	if err != nil {
		t.Fatalf("connection unusable after a timeout: %v", err)
	}
	if string(out) != "still alive" {
		t.Fatalf("payload %q", out)
	}
}

// TestPipelineStress64 is the -race stress gate: 64 goroutines hammer
// one client; every response must round-trip its own payload (no
// cross-delivery between correlation IDs).
func TestPipelineStress64(t *testing.T) {
	leaktest.Check(t)
	srv, addr := pipelineServer(t, nil, nil)
	defer srv.Close()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const (
		callers = 64
		each    = 40
	)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := fmt.Sprintf("g%d-i%d", g, i)
				out, err := cli.Call("echo", []byte(want))
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if string(out) != want {
					t.Errorf("caller %d call %d: got %q want %q — responses crossed", g, i, out, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloseDrainsPendingExactlyOnce is the Close bugfix test:
// concurrent Closes racing in-flight calls must drain the pending map
// once (every call gets exactly one typed completion), never
// double-close the quit channel (which would panic), and all Closes
// return the same result.
func TestCloseDrainsPendingExactlyOnce(t *testing.T) {
	leaktest.Check(t)
	release := make(chan struct{})
	var parked atomic.Int64
	srv, addr := pipelineServer(t, release, &parked)
	defer srv.Close()
	defer close(release)
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}

	const calls = 8
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := cli.Call("block", nil)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return parked.Load() == calls })

	var wg sync.WaitGroup
	closeErrs := make([]error, 4)
	for i := range closeErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			closeErrs[i] = cli.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range closeErrs {
		if err != nil {
			t.Fatalf("concurrent Close %d: %v", i, err)
		}
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("in-flight call %d after Close: got %v, want ErrPeerClosed", i, err)
		}
	}
	// And calls issued after Close fail fast with the same typed error.
	if _, err := cli.Call("echo", nil); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("post-Close call: got %v, want ErrPeerClosed", err)
	}
}

// TestEnqueueBlockedCallersReleasedOnConnDeath pins the regression
// where callers blocked enqueueing on a full send queue hung forever
// when the connection died: fail() completes every registered call,
// and the enqueue select must honour that completion. No per-call
// Timeout is set on purpose — the timer is armed only after a
// successful enqueue, so it cannot be what frees these callers.
func TestEnqueueBlockedCallersReleasedOnConnDeath(t *testing.T) {
	leaktest.Check(t)
	cliConn, srvConn := net.Pipe()
	c := NewTCPClient(cliConn)

	// Park the writer on exactly one frame first. The writer coalesces
	// everything queued at each wakeup, so with many callers racing it
	// could grab more than the overflow margin before blocking and the
	// queue could never fill. With one caller alone, the writer holds
	// that one frame; reading its first byte proves the writer is
	// inside the flush, where the unread pipe now stalls it for good.
	const callers = 1 + sendQueueDepth + 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	call := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Call("stalled", nil)
			errs <- err
		}()
	}
	call()
	if _, err := io.ReadFull(srvConn, make([]byte, 1)); err != nil {
		t.Fatalf("writer never started the first frame: %v", err)
	}

	// Then more callers than the send queue can absorb, so the overflow
	// is parked in the enqueue select.
	for i := 1; i < callers; i++ {
		call()
	}
	waitFor(t, func() bool {
		c.mu.Lock()
		registered := len(c.pending)
		c.mu.Unlock()
		return registered == callers && len(c.sendq) == sendQueueDepth
	})

	srvConn.Close() // the connection dies under the stalled writer

	released := make(chan struct{})
	go func() { wg.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("callers still blocked after connection death")
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("caller %d: got %v, want ErrPeerClosed", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after failure: %v", err)
	}
}

// TestWriteLoopSkipsAbandonedFrames checks that a call that timed out
// while its frame was still queued behind the writer is never written:
// the server should not spend a MaxInFlight slot computing a response
// the client will drop by correlation ID.
func TestWriteLoopSkipsAbandonedFrames(t *testing.T) {
	leaktest.Check(t)
	cliConn, srvConn := net.Pipe()
	c := NewTCPClient(cliConn)
	defer srvConn.Close()
	defer c.Close()

	// Hand the writer a frame whose call has already been abandoned —
	// the state abandon() leaves behind when the deadline fires with
	// the frame still in the queue.
	dead := &pendingCall{req: &frame{kind: kindRequest, id: 999, method: "dead"}, done: make(chan struct{})}
	dead.abandoned.Store(true)
	c.sendq <- dead

	live := make(chan error, 1)
	go func() {
		_, err := c.Call("live", nil)
		live <- err
	}()

	// The first frame to reach the wire must be the live call's: the
	// abandoned one queued ahead of it was dropped unwritten.
	f, err := readFrame(srvConn, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.method != "live" {
		t.Fatalf("first frame on the wire is %q, want the abandoned %q skipped", f.method, "dead")
	}
	if err := writeFrame(srvConn, &frame{kind: kindResponse, id: f.id}); err != nil {
		t.Fatal(err)
	}
	if err := <-live; err != nil {
		t.Fatalf("live call behind a skipped frame failed: %v", err)
	}
}

// mustDial dials or fails the test.
func mustDial(t *testing.T, addr string) *TCPClient {
	t.Helper()
	cli, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

// waitFor polls cond to true within a bounded window.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond) //mits:allow sleepless test poll
	}
}
