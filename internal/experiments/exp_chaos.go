package experiments

import (
	"errors"
	"fmt"
	"net"
	"time"

	"mits/internal/atm"
	"mits/internal/faults"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/navigator"
	"mits/internal/obs"
	"mits/internal/transport"
)

// E28Chaos drives the full client–server pipeline through the fault
// matrix of DESIGN §9: every scenario injects one failure mode between
// a navigator-side database client and the content server, and the
// resilience layer (per-call deadlines, idempotent retry, circuit
// breaker, degradation ladder) must keep every call live — success
// within its deadline budget or a typed, inspectable error; never a
// hang, never a raw io.EOF. A second leg runs the same faults against
// the virtual-time ATM RPC path, and a third streams video over a
// starved link where the adaptive sender must degrade instead of
// stalling. The injector is seeded, so a run's fault sequence replays
// exactly (asserted here by running one scenario twice).
func E28Chaos() (*Report, error) {
	r := &Report{
		ID: "E28", Figure: "DESIGN §9", Title: "Chaos: fault injection vs the resilience layer",
		Header: []string{"scenario", "calls", "ok", "typed err", "untyped", "outcome"},
		Pass:   true,
	}

	// TCP leg: each scenario gets a fresh server, injector, and
	// resilient client stack (breaker over retry over deadline-bounded
	// TCP calls).
	const (
		callsPerScenario = 12
		callTimeout      = 50 * time.Millisecond
		connTimeout      = 200 * time.Millisecond
	)
	policy := transport.RetryPolicy{
		Attempts:    3,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	}
	scenarios := []struct {
		name string
		scen faults.Scenario
	}{
		{"clean", faults.Scenario{}},
		{"slow", faults.Scenario{Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond}},
		{"lossy", faults.Scenario{DropProb: 0.3}},
		{"stall", faults.Scenario{StallProb: 0.4, StallFor: 120 * time.Millisecond}},
		{"corrupt", faults.Scenario{CorruptProb: 0.3}},
		{"truncate", faults.Scenario{TruncProb: 0.3}},
		{"flaky-accept", faults.Scenario{AcceptErrProb: 0.5}},
	}
	retriesBefore := obs.GetCounter("transport_retries_total", "method", transport.MethodListDocs).Value()
	for i, sc := range scenarios {
		seed := uint64(0xC0FFEE + 101*i)
		ok, typed, untyped, err := runTCPScenario(sc.scen, seed, policy, callTimeout, connTimeout, callsPerScenario)
		if err != nil {
			return nil, fmt.Errorf("E28 %s: %w", sc.name, err)
		}
		outcome := "live"
		if untyped > 0 {
			outcome = "untyped errors"
			r.Pass = false
		}
		if sc.name == "clean" && ok != callsPerScenario {
			outcome = "clean path failed"
			r.Pass = false
		}
		r.Rows = append(r.Rows, []string{
			sc.name, fmt.Sprint(callsPerScenario), fmt.Sprint(ok),
			fmt.Sprint(typed), fmt.Sprint(untyped), outcome,
		})
	}
	if gained := obs.GetCounter("transport_retries_total", "method", transport.MethodListDocs).Value() - retriesBefore; gained == 0 {
		r.Notes = append(r.Notes, "no retries recorded across the fault matrix")
		r.Pass = false
	}

	// Partition-and-heal: fail fast while the peer is unreachable (the
	// breaker opens), then recover through half-open once it returns.
	partRow, partPass, err := runPartitionHeal(policy, callTimeout)
	if err != nil {
		return nil, fmt.Errorf("E28 partition-heal: %w", err)
	}
	r.Rows = append(r.Rows, partRow)
	if !partPass {
		r.Pass = false
	}

	// Determinism: the lossy scenario replayed with its seed must
	// inject the identical fault sequence.
	evA, err := tcpScenarioEvents(scenarios[2].scen, 0xC0FFEE+202, policy, callTimeout, connTimeout, callsPerScenario)
	if err != nil {
		return nil, err
	}
	evB, err := tcpScenarioEvents(scenarios[2].scen, 0xC0FFEE+202, policy, callTimeout, connTimeout, callsPerScenario)
	if err != nil {
		return nil, err
	}
	replay := "identical"
	if len(evA) == 0 || !equalStrings(evA, evB) {
		replay = "DIVERGED"
		r.Pass = false
	}
	r.Notes = append(r.Notes, fmt.Sprintf("lossy replay: %d injected faults, sequences %s", len(evA), replay))

	// ATM leg: the same injector feeds the virtual-time RPC path via
	// the session's fault hook; dropped requests must complete through
	// the call deadline, injected errors must arrive typed.
	atmRow, atmPass, err := runATMScenario()
	if err != nil {
		return nil, fmt.Errorf("E28 atm: %w", err)
	}
	r.Rows = append(r.Rows, atmRow)
	if !atmPass {
		r.Pass = false
	}

	// Navigator leg: on a starved link the adaptive streamer must climb
	// the degradation ladder and keep delivering instead of stalling.
	navRow, navPass, err := runStarvedStream()
	if err != nil {
		return nil, fmt.Errorf("E28 navigator: %w", err)
	}
	r.Rows = append(r.Rows, navRow)
	if !navPass {
		r.Pass = false
	}
	return r, nil
}

// chaosStack builds the server+client pair for one TCP scenario:
// returns the resilient client, the breaker, the server (caller
// closes), and the injector.
func chaosStack(scen faults.Scenario, seed uint64, policy transport.RetryPolicy, callTimeout, connTimeout time.Duration) (transport.DBClient, *transport.Breaker, *transport.TCPServer, *faults.Injector, error) {
	store := mediastore.New()
	if _, err := store.PutDocument("atm-course", "ATM", "text", []byte("course body")); err != nil {
		return transport.DBClient{}, nil, nil, nil, err
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	srv := transport.NewTCPServer(mux)
	srv.ConnTimeout = connTimeout

	inj := faults.NewInjector(scen, seed)
	addr, err := listenInjected(srv, inj)
	if err != nil {
		return transport.DBClient{}, nil, nil, nil, err
	}
	dial := func() (transport.Client, error) {
		conn, err := inj.Dial(addr)
		if err != nil {
			return nil, err
		}
		c := transport.NewTCPClient(conn)
		c.Timeout = callTimeout
		return c, nil
	}
	db, br := transport.NewResilientDBClient("content-server", dial, policy, 4, 80*time.Millisecond, seed)
	return db, br, srv, inj, nil
}

// listenInjected binds a loopback listener, wraps it with the
// injector, and starts the server on it.
func listenInjected(srv *transport.TCPServer, inj *faults.Injector) (string, error) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if err := srv.Serve(inj.WrapListener(base)); err != nil {
		base.Close()
		return "", err
	}
	return base.Addr().String(), nil
}

func runTCPScenario(scen faults.Scenario, seed uint64, policy transport.RetryPolicy, callTimeout, connTimeout time.Duration, calls int) (ok, typed, untyped int, err error) {
	db, _, srv, _, err := chaosStack(scen, seed, policy, callTimeout, connTimeout)
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.Close()  //mits:allow errdrop experiment teardown
	defer db.C.Close() //mits:allow errdrop experiment teardown
	for i := 0; i < calls; i++ {
		_, cerr := db.GetListDoc()
		switch {
		case cerr == nil:
			ok++
		case isTypedTransportErr(cerr):
			typed++
		default:
			untyped++
		}
	}
	return ok, typed, untyped, nil
}

// tcpScenarioEvents runs a scenario and returns the injector's event
// log for replay comparison.
func tcpScenarioEvents(scen faults.Scenario, seed uint64, policy transport.RetryPolicy, callTimeout, connTimeout time.Duration, calls int) ([]string, error) {
	db, _, srv, inj, err := chaosStack(scen, seed, policy, callTimeout, connTimeout)
	if err != nil {
		return nil, err
	}
	defer srv.Close()  //mits:allow errdrop experiment teardown
	defer db.C.Close() //mits:allow errdrop experiment teardown
	for i := 0; i < calls; i++ {
		db.GetListDoc() //mits:allow errdrop only the injected-fault sequence matters here
	}
	return inj.Events(), nil
}

// runPartitionHeal exercises the breaker's full cycle: a partitioned
// peer fails calls fast until the breaker opens, and after the
// partition heals the half-open probe closes it again.
func runPartitionHeal(policy transport.RetryPolicy, callTimeout time.Duration) ([]string, bool, error) {
	db, br, srv, inj, err := chaosStack(faults.Scenario{Partitioned: true}, 0xBAD5EED, policy, callTimeout, 200*time.Millisecond)
	if err != nil {
		return nil, false, err
	}
	defer srv.Close()  //mits:allow errdrop experiment teardown
	defer db.C.Close() //mits:allow errdrop experiment teardown

	ok, typed, untyped := 0, 0, 0
	for i := 0; i < 6; i++ {
		_, cerr := db.GetListDoc()
		switch {
		case cerr == nil:
			ok++
		case isTypedTransportErr(cerr):
			typed++
		default:
			untyped++
		}
	}
	opened := br.State() == transport.BreakerOpen
	inj.SetPartitioned(false)
	time.Sleep(100 * time.Millisecond) //mits:allow sleepless waiting out the breaker cooldown is the scenario
	healedCalls := 0
	for i := 0; i < 3; i++ {
		if _, cerr := db.GetListDoc(); cerr == nil {
			healedCalls++
		}
	}
	closedAgain := br.State() == transport.BreakerClosed
	pass := opened && closedAgain && healedCalls > 0 && untyped == 0 && ok == 0
	outcome := "opened, healed, closed"
	if !pass {
		outcome = fmt.Sprintf("opened=%v closed=%v healed=%d", opened, closedAgain, healedCalls)
	}
	return []string{"partition-heal", "6+3", fmt.Sprint(ok + healedCalls), fmt.Sprint(typed), fmt.Sprint(untyped), outcome}, pass, nil
}

// runATMScenario drives the virtual-time RPC path through drop and
// error injection; the per-call deadline must complete every dropped
// request, and all completions happen in virtual time.
func runATMScenario() ([]string, bool, error) {
	n := atm.New()
	server := n.AddHost("db")
	client := n.AddHost("nav")
	sw := n.AddSwitch("sw")
	n.Connect(server, sw, 155e6, 200*time.Microsecond)
	n.Connect(client, sw, 155e6, 200*time.Microsecond)

	store := mediastore.New()
	if _, err := store.PutDocument("atm-course", "ATM", "text", []byte("course body")); err != nil {
		return nil, false, err
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)

	inj := faults.NewInjector(faults.Scenario{
		DropProb: 0.25, ErrProb: 0.15,
		Latency: time.Millisecond, Jitter: time.Millisecond,
	}, 0xA71)
	sess, err := transport.OpenATMSession(n, client, server, mux, transport.ATMSessionOptions{
		ServiceTime: time.Millisecond,
		Timeout:     250 * time.Millisecond,
		Fault:       inj.RPC,
	})
	if err != nil {
		return nil, false, err
	}
	defer sess.Close()

	req := transport.EncodeGetDoc("atm-course")
	const calls = 20
	ok, typed, untyped := 0, 0, 0
	for i := 0; i < calls; i++ {
		_, cerr := sess.CallOver(transport.MethodGetDoc, req)
		switch {
		case cerr == nil:
			ok++
		case isTypedTransportErr(cerr):
			typed++
		default:
			untyped++
		}
	}
	pass := untyped == 0 && ok > 0 && typed > 0 && sess.Pending() == 0
	outcome := "live"
	if !pass {
		outcome = fmt.Sprintf("pending=%d", sess.Pending())
	}
	return []string{"atm-drop+err", fmt.Sprint(calls), fmt.Sprint(ok), fmt.Sprint(typed), fmt.Sprint(untyped), outcome}, pass, nil
}

// runStarvedStream streams 1.5 Mb/s video over a 600 kb/s link: the
// adaptive sender must escalate the degradation ladder and keep frames
// flowing rather than stalling the session.
func runStarvedStream() ([]string, bool, error) {
	n := atm.New()
	srv := n.AddHost("server")
	cli := n.AddHost("client")
	sw := n.AddSwitch("s1")
	n.Connect(srv, sw, 155e6, 200*time.Microsecond)
	n.Connect(sw, cli, 600e3, 200*time.Microsecond)
	video := media.EncodeMPEG(media.VideoParams{Duration: 2 * time.Second, BitRate: 1.5e6, Seed: 9})
	stats, err := navigator.StreamVideoAdaptive(n, srv, cli, atm.UBRContract(2e6), video, 300*time.Millisecond)
	if err != nil {
		return nil, false, err
	}
	degraded := stats.MaxLevel > navigator.DegradeNone
	pass := degraded && stats.Delivered > 0
	outcome := fmt.Sprintf("level=%s skipped=%d", stats.MaxLevel, stats.Skipped)
	if !pass {
		outcome = "stalled at full quality"
	}
	return []string{"starved-stream", fmt.Sprint(stats.Frames), fmt.Sprint(stats.Delivered),
		"0", "0", outcome}, pass, nil
}

// isTypedTransportErr reports whether err is one of the resilience
// layer's inspectable failures — the liveness contract: anything else
// is a leak of a raw carrier error.
func isTypedTransportErr(err error) bool {
	var ce *transport.CallError
	var re *transport.RemoteError
	return errors.As(err, &ce) || errors.As(err, &re)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
