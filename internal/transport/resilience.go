package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mits/internal/obs"
	"mits/internal/sim"
)

// This file is the resilience layer of the client–server model: typed
// transport failures, idempotent retry with exponential backoff and
// jitter, and a per-peer circuit breaker. The thesis assumes a
// well-behaved broadband network; the ROADMAP's millions of users do
// not. Every mechanism here is visible in /stats (retries, breaker
// transitions) and is driven through its failure modes by the E28
// chaos experiment on top of internal/faults.

// Typed failures. Call sites inspect them with errors.Is; raw io.EOF
// or net timeout errors never escape the transport client.
var (
	// ErrPeerClosed: the peer hung up mid-call (EOF, reset, closed
	// connection).
	ErrPeerClosed = errors.New("transport: peer closed connection")
	// ErrCallTimeout: the per-call deadline expired before a response.
	ErrCallTimeout = errors.New("transport: call deadline exceeded")
	// ErrBreakerOpen: the circuit breaker is rejecting calls fast
	// while the peer cools down.
	ErrBreakerOpen = errors.New("transport: circuit breaker open")
	// ErrDial: establishing the connection failed; nothing was sent.
	ErrDial = errors.New("transport: dial failed")
)

// CallError is the typed wrapper every failed client call returns:
// which method failed, after how many attempts, and the underlying
// cause (inspect with errors.Is/As).
type CallError struct {
	Method   string
	Attempts int
	Err      error
}

func (e *CallError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("transport: call %s (after %d attempts): %v", e.Method, e.Attempts, e.Err)
	}
	return fmt.Sprintf("transport: call %s: %v", e.Method, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CallError) Unwrap() error { return e.Err }

// MethodObsExport ships a batch of finished trace spans to a collector
// (see internal/obs/collect). Declared here rather than in dbapi.go
// because it is a transport-infrastructure method, not a courseware
// one.
const MethodObsExport = "obs.Export"

// idempotentMethods are the read-only courseware-database methods: a
// duplicate delivery changes nothing, so they are safe to retry after
// a failure whose outcome is unknown. Span export rides along: the
// collector dedupes spans by ID, so a duplicate batch is absorbed.
var idempotentMethods = map[string]bool{
	MethodListDocs:         true,
	MethodGetDoc:           true,
	MethodKeywordTree:      true,
	MethodDocByKeyword:     true,
	MethodGetContent:       true,
	MethodGetContentStream: true, // each chunk is an independent read
	MethodObsExport:        true,
}

// IsIdempotent reports whether method is safe to retry blindly.
func IsIdempotent(method string) bool { return idempotentMethods[method] }

// RetryBudget is a global token bucket shared across calls (and across
// RetryClients): every retry spends one token, and tokens refill at a
// bounded rate. Its purpose is storm control — when N callers fail over
// simultaneously (a shard's primary dies, every navigator's next read
// fails), per-call retry policies would multiply the outage into N×
// (Attempts-1) extra requests against whatever survived. A shared
// budget caps that amplification: once the bucket is dry, calls fail
// over without retrying instead of piling on. First attempts are never
// charged — the budget limits amplification, not traffic.
//
// Safe for concurrent use. A nil *RetryBudget allows everything, so
// wiring one in is strictly opt-in per policy.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	perSec float64
	last   time.Time
	now    func() time.Time

	exhausted *obs.Counter
}

// NewRetryBudget builds a budget holding at most maxTokens retries,
// refilling at refillPerSec tokens per second. maxTokens <= 0 defaults
// to 10, refillPerSec <= 0 to 10/s — roughly "one small burst, then one
// retry per 100ms", tight enough to flatten a stampede without starving
// a lone caller's recovery.
func NewRetryBudget(maxTokens, refillPerSec float64) *RetryBudget {
	if maxTokens <= 0 {
		maxTokens = 10
	}
	if refillPerSec <= 0 {
		refillPerSec = 10
	}
	return &RetryBudget{
		tokens:    maxTokens,
		max:       maxTokens,
		perSec:    refillPerSec,
		now:       time.Now,
		exhausted: obs.GetCounter("transport_retry_budget_exhausted_total"),
	}
}

// SetClock injects a time source (tests); returns the budget.
func (b *RetryBudget) SetClock(now func() time.Time) *RetryBudget {
	b.mu.Lock()
	b.now = now
	b.last = time.Time{}
	b.mu.Unlock()
	return b
}

// Allow spends one retry token, reporting whether the retry may
// proceed. A denial is counted in transport_retry_budget_exhausted_total.
func (b *RetryBudget) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.perSec
		if b.tokens > b.max {
			b.tokens = b.max
		}
	}
	b.last = now
	if b.tokens < 1 {
		b.exhausted.Inc()
		return false
	}
	b.tokens--
	return true
}

// Tokens reports the (refilled) balance, for tests and stats.
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		now := b.now()
		b.tokens += now.Sub(b.last).Seconds() * b.perSec
		if b.tokens > b.max {
			b.tokens = b.max
		}
		b.last = now
	}
	return b.tokens
}

// RetryPolicy configures RetryClient: attempt budget, exponential
// backoff with jitter, and the retry decision. The zero value gets
// sane defaults (3 attempts, 5ms base backoff doubling to 100ms,
// ±50% jitter, DefaultRetryable).
type RetryPolicy struct {
	// Attempts is the total call budget (first try included).
	Attempts int
	// BaseBackoff is the pause before the first retry; each further
	// retry doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac spreads each backoff uniformly over ±frac of itself,
	// decorrelating clients that failed together.
	JitterFrac float64
	// Retryable decides whether a failed attempt may be retried; nil
	// means DefaultRetryable. Dial failures are always retried —
	// nothing was sent.
	Retryable func(method string, err error) bool
	// Sleep waits out a backoff; nil means a real clock wait. Tests
	// inject a recorder.
	Sleep func(time.Duration)
	// Budget, when non-nil, is a global retry token bucket shared with
	// other clients (typically every replica client behind one cluster
	// router): a retry only proceeds if Budget.Allow() grants a token,
	// so simultaneous failovers cannot amplify an outage into a retry
	// storm. Nil means unlimited retries (per-call Attempts still cap
	// each call).
	Budget *RetryBudget
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.5
	}
	if p.Retryable == nil {
		p.Retryable = DefaultRetryable
	}
	if p.Sleep == nil {
		p.Sleep = func(d time.Duration) {
			time.Sleep(d) //mits:allow sleepless retry backoff is a deliberate wall-clock wait
		}
	}
	return p
}

// DefaultRetryable retries idempotent methods on transport-level
// failures. Breaker rejections are never retried (the point is to
// fail fast), and neither are remote handler errors — the carrier
// worked and the server's answer is deterministic, so a retry would
// only repeat it. Non-idempotent methods are never retried here
// (their dial-stage failures are retried by RetryClient directly,
// where it is known nothing was sent).
func DefaultRetryable(method string, err error) bool {
	if errors.Is(err, ErrBreakerOpen) {
		return false
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		return false
	}
	return IsIdempotent(method)
}

// backoffFor computes the pause before retry #retry (1-based),
// exponential with cap and jitter. rng draws are deterministic per
// seed, so chaos runs replay their backoff schedule exactly.
func (p RetryPolicy) backoffFor(retry int, rng *sim.RNG) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < retry && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.JitterFrac > 0 {
		d = time.Duration(float64(d) * (1 + p.JitterFrac*(2*rng.Float64()-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Dialer establishes one client connection to a peer.
type Dialer func() (Client, error)

// RetryClient is a self-healing Client: it dials lazily, retries
// idempotent calls with exponential backoff + jitter, and redials
// after transport-level failures (a failed connection's framing state
// is unknown, so it is discarded rather than reused). Remote handler
// errors keep the connection: the carrier worked.
type RetryClient struct {
	dial   Dialer
	policy RetryPolicy

	mu     sync.Mutex
	rng    *sim.RNG
	cur    Client
	closed bool
}

// NewRetryClient wraps dial with policy; seed fixes the jitter stream
// so runs replay deterministically.
func NewRetryClient(dial Dialer, policy RetryPolicy, seed uint64) *RetryClient {
	return &RetryClient{dial: dial, policy: policy.withDefaults(), rng: sim.NewRNG(seed)}
}

// Call implements Client with the retry loop.
func (r *RetryClient) Call(method string, payload []byte) ([]byte, error) {
	out, _, err := r.CallInTracePooled(obs.SpanContext{}, method, payload)
	return out, err
}

// CallInTrace implements TraceCaller: each attempt's client span
// continues the caller's trace, so retries appear as sibling spans
// under the same parent.
func (r *RetryClient) CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	out, _, err := r.CallInTracePooled(sc, method, payload)
	return out, err
}

// CallInTracePooled implements PooledTraceCaller and holds the retry
// loop: the release of the winning attempt's response is handed
// through (nil when the inner carrier does not pool).
func (r *RetryClient) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	p := r.policy
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		if attempt > 1 {
			if p.Budget != nil && !p.Budget.Allow() {
				// The global budget is dry: stop amplifying. The caller
				// gets the last attempt's typed error and (in a cluster)
				// fails over to another replica instead of retrying here.
				break
			}
			d := r.jitteredBackoff(attempt - 1)
			obs.GetCounter("transport_retries_total", "method", method).Inc()
			obs.Observe("transport_retry_backoff_ns", d)
			p.Sleep(d)
		}
		cl, err := r.client()
		if err != nil {
			if errors.Is(err, errRetryClientClosed) {
				return nil, nil, &CallError{Method: method, Attempts: attempt, Err: err}
			}
			obs.GetCounter("transport_dial_errors_total").Inc()
			lastErr = fmt.Errorf("%w: %w", ErrDial, err)
			continue // nothing was sent: always safe to retry
		}
		out, rel, err := CallInTracePooled(cl, sc, method, payload)
		if err == nil {
			if attempt > 1 {
				obs.GetCounter("transport_retry_recoveries_total", "method", method).Inc()
			}
			return out, rel, nil
		}
		lastErr = err
		var remote *RemoteError
		if !errors.As(err, &remote) && !errors.Is(err, ErrCallTimeout) {
			// Transport-level failure: the connection's framing state
			// is unknown; discard it so the next attempt redials. A
			// pure call timeout is exempt: the multiplexed client
			// matches responses by correlation ID, so a late response
			// is discarded harmlessly and the connection stays good —
			// tearing it down would fail every neighbouring in-flight
			// call for one slow one (per-call, not per-connection).
			r.discardIfDead(cl)
		}
		if !p.Retryable(method, err) {
			break
		}
	}
	var ce *CallError
	if errors.As(lastErr, &ce) {
		return nil, nil, lastErr // already typed by the inner client
	}
	return nil, nil, &CallError{Method: method, Attempts: p.Attempts, Err: lastErr}
}

var errRetryClientClosed = errors.New("transport: retry client closed")

// jitteredBackoff draws the next backoff under the client's lock (the
// RNG is not concurrency-safe).
func (r *RetryClient) jitteredBackoff(retry int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy.backoffFor(retry, r.rng)
}

// client returns the live connection, dialing if needed.
func (r *RetryClient) client() (Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errRetryClientClosed
	}
	if r.cur != nil {
		return r.cur, nil
	}
	c, err := r.dial()
	if err != nil {
		return nil, err
	}
	r.cur = c
	return c, nil
}

// healthReporter is the optional self-health probe a client may
// expose: nil while still usable, the terminal error once dead. A
// ClientPool uses it to survive single-stripe deaths — one dead
// connection out of four is routed around inside the pool, and only a
// fully-dead pool is worth discarding and redialing.
type healthReporter interface{ Err() error }

// discardIfDead discards a client after a transport-level failure —
// unless the client itself reports it is still usable (a pool with
// live stripes left), in which case tearing it down would kill the
// healthy stripes' in-flight calls for one conn's fault.
func (r *RetryClient) discardIfDead(cl Client) {
	if hr, ok := cl.(healthReporter); ok && hr.Err() == nil {
		return
	}
	r.discard(cl)
}

// discard drops a failed connection so the next attempt redials. The
// attempt has already failed: the broken connection's close error is
// noise, and the retry loop deliberately drops it (errdrop knows this
// retry-helper convention).
func (r *RetryClient) discard(cl Client) {
	r.mu.Lock()
	if r.cur == cl {
		r.cur = nil
	}
	r.mu.Unlock()
	cl.Close()
}

// Close implements Client; further calls fail fast with a typed error.
func (r *RetryClient) Close() error {
	r.mu.Lock()
	r.closed = true
	cl := r.cur
	r.cur = nil
	r.mu.Unlock()
	if cl != nil {
		return cl.Close()
	}
	return nil
}

// BreakerState is the circuit-breaker position.
type BreakerState int32

// The classic three positions.
const (
	BreakerClosed   BreakerState = iota // calls flow, failures counted
	BreakerOpen                         // calls rejected until cooldown
	BreakerHalfOpen                     // one probe in flight decides
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Breaker is a per-peer circuit breaker: after Threshold consecutive
// failures it opens and rejects calls instantly (no timeout waits
// pile up against a dead peer); after Cooldown it half-opens and lets
// one probe through — success closes it, failure re-opens. State
// transitions and rejections are counted in /stats.
type Breaker struct {
	peer      string
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	// stateGauge mirrors the position into /stats as
	// breaker_state{peer=...} (0 closed, 1 open, 2 half-open), so the
	// cluster router and operators see open circuits directly instead
	// of inferring them from error counts.
	stateGauge *obs.Gauge

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a breaker for the named peer. threshold ≤ 0
// defaults to 5 consecutive failures; cooldown ≤ 0 to 500ms.
func NewBreaker(peer string, threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 500 * time.Millisecond
	}
	b := &Breaker{
		peer: peer, threshold: threshold, cooldown: cooldown, now: time.Now,
		stateGauge: obs.GetGauge("breaker_state", "peer", peer),
	}
	b.stateGauge.Set(int64(BreakerClosed))
	return b
}

// SetClock injects a time source (tests); returns the breaker.
func (b *Breaker) SetClock(now func() time.Time) *Breaker {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
	return b
}

// State reports the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transitionLocked moves to a new state, counting it. Callers hold
// b.mu.
func (b *Breaker) transitionLocked(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	b.stateGauge.Set(int64(to))
	obs.GetCounter("transport_breaker_transitions_total", "peer", b.peer, "to", to.String()).Inc()
}

// Allow reports whether a call may proceed, returning ErrBreakerOpen
// (wrapped with the peer name) for fast-fail rejections.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.transitionLocked(BreakerHalfOpen)
			b.probing = true
			return nil
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			return nil
		}
	}
	obs.GetCounter("transport_breaker_rejected_total", "peer", b.peer).Inc()
	return fmt.Errorf("%w: peer %s", ErrBreakerOpen, b.peer)
}

// Record feeds one call outcome back into the breaker.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.failures = 0
		b.probing = false
		b.transitionLocked(BreakerClosed)
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		b.openedAt = b.now()
		b.transitionLocked(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = b.now()
			b.transitionLocked(BreakerOpen)
		}
	case BreakerOpen:
		// A straggler from before the trip; nothing to learn.
	}
}

// BreakerClient guards a Client with a Breaker. Remote handler errors
// do not count against the peer — the carrier worked; only
// transport-level failures trip the breaker.
type BreakerClient struct {
	c Client
	b *Breaker
}

// WithBreaker wraps c.
func WithBreaker(c Client, b *Breaker) *BreakerClient {
	return &BreakerClient{c: c, b: b}
}

// Call implements Client: fast-fail while open, record outcomes.
func (bc *BreakerClient) Call(method string, payload []byte) ([]byte, error) {
	out, _, err := bc.CallInTracePooled(obs.SpanContext{}, method, payload)
	return out, err
}

// CallInTrace implements TraceCaller, threading the trace through to
// the guarded client.
func (bc *BreakerClient) CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	out, _, err := bc.CallInTracePooled(sc, method, payload)
	return out, err
}

// CallInTracePooled implements PooledTraceCaller and holds the guard:
// fast-fail while open, then record the outcome — remote handler
// errors count as success, since the carrier worked.
func (bc *BreakerClient) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	if err := bc.b.Allow(); err != nil {
		return nil, nil, &CallError{Method: method, Err: err}
	}
	out, rel, err := CallInTracePooled(bc.c, sc, method, payload)
	var remote *RemoteError
	if err != nil && errors.As(err, &remote) {
		bc.b.Record(nil)
	} else {
		bc.b.Record(err)
	}
	return out, rel, err
}

// Close implements Client.
func (bc *BreakerClient) Close() error { return bc.c.Close() }

// Breaker exposes the guarding breaker (for state assertions).
func (bc *BreakerClient) Breaker() *Breaker { return bc.b }
