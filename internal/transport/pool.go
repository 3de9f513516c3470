package transport

import (
	"fmt"
	"sync/atomic"

	"mits/internal/obs"
)

// Per-peer connection pooling. One TCP connection gives the
// multiplexed client one writer goroutine, one reader goroutine and
// one pending-call mutex — a serialization point every concurrent
// caller funnels through, and a single point of failure that a conn
// death turns into a mass in-flight kill. A ClientPool runs a small
// fixed set of TCPClients to the same peer and stripes callers across
// them round-robin: the pending-call map is sharded per connection as
// a side effect (each stripe owns its own), independent calls stop
// contending on one writer, and a connection death fails only the
// calls in flight on that stripe.
//
// The pool deliberately does not redial dead stripes — redialing is
// the RetryClient's job, one layer up. A pool whose stripes have all
// died reports Err() non-nil, the retry layer discards it and dials a
// fresh pool, exactly as it would a single connection.

// DefaultPoolConns is the stripe count when callers do not choose one:
// enough connections that a burst of independent calls spreads out,
// few enough that per-conn buffers (batch scratch, bufio readers) stay
// cheap even with many peers.
const DefaultPoolConns = 4

// ClientPool stripes calls over a fixed set of TCPClients to one peer.
// It implements Client, TraceCaller and PooledTraceCaller, so it drops
// into every place a single TCPClient composes today — DBClient, the
// breaker/retry stack, the cluster router's per-node clients.
type ClientPool struct {
	stripes []*TCPClient
	next    atomic.Uint64
}

// NewClientPool pools already-established clients (chaos tests wrap
// each conn in a fault injector before pooling). Panics on an empty
// set — a pool with nothing to stripe over is a wiring bug.
func NewClientPool(stripes []*TCPClient) *ClientPool {
	if len(stripes) == 0 {
		panic("transport: empty client pool")
	}
	p := &ClientPool{stripes: stripes}
	obs.GetGauge("transport_pool_conns").Set(int64(len(stripes)))
	return p
}

// DialTCPPool dials n connections to addr (DefaultPoolConns when n <=
// 0, a plain single conn when n == 1 still wrapped for the uniform
// type). Dialing is all-or-nothing: one failed conn closes the rest
// and fails the dial, so a pool never starts life degraded.
func DialTCPPool(addr string, n int) (*ClientPool, error) {
	if n <= 0 {
		n = DefaultPoolConns
	}
	stripes := make([]*TCPClient, 0, n)
	for i := 0; i < n; i++ {
		c, err := DialTCP(addr)
		if err != nil {
			for _, open := range stripes {
				open.Close() //mits:allow errdrop best-effort cleanup of a partial pool; the dial error is what the caller needs
			}
			return nil, fmt.Errorf("transport: pool conn %d/%d: %w", i+1, n, err)
		}
		stripes = append(stripes, c)
	}
	return NewClientPool(stripes), nil
}

// pick chooses the next stripe round-robin, skipping stripes that have
// already died so new calls are not fed to a known-dead connection.
// With every stripe dead it returns one anyway — the call fails with
// that stripe's typed error, which is what the caller (and the retry
// layer above) needs to see.
func (p *ClientPool) pick() *TCPClient {
	i := p.next.Add(1)
	n := uint64(len(p.stripes))
	for k := uint64(0); k < n; k++ {
		c := p.stripes[(i+k)%n]
		if c.Err() == nil {
			return c
		}
	}
	return p.stripes[i%n]
}

// Call implements Client on the next stripe.
func (p *ClientPool) Call(method string, payload []byte) ([]byte, error) {
	out, _, err := p.CallInTracePooled(obs.SpanContext{}, method, payload)
	return out, err
}

// CallInTrace implements TraceCaller on the next stripe.
func (p *ClientPool) CallInTrace(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	out, _, err := p.CallInTracePooled(sc, method, payload)
	return out, err
}

// CallInTracePooled implements PooledTraceCaller on the next stripe.
func (p *ClientPool) CallInTracePooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	return p.pick().CallInTracePooled(sc, method, payload)
}

// Err reports nil while at least one stripe is usable, else the first
// stripe's terminal error — the whole pool is dead and the retry layer
// should discard it.
func (p *ClientPool) Err() error {
	for _, c := range p.stripes {
		if c.Err() == nil {
			return nil
		}
	}
	return p.stripes[0].Err()
}

// Close implements Client: closes every stripe, returning the first
// error.
func (p *ClientPool) Close() error {
	var first error
	for _, c := range p.stripes {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
