package main

import (
	"errors"
	"net"
	"reflect"
	"testing"

	"mits/internal/obs"
	"mits/internal/transport"
)

// fingerprint is everything the seed decides about a catalogue.
func fingerprint(cat *catalogue) []any {
	var fp []any
	for _, c := range cat.Courses {
		fp = append(fp, c.Code, c.Program, c.DocName, c.Keywords, c.Scenes, c.Doc.Sum, c.Doc.Len)
		for _, o := range courseObjects(c) {
			fp = append(fp, o.Ref, o.Coding, o.Sum, o.Len, o.Content)
		}
	}
	for _, h := range cat.Holdings {
		fp = append(fp, h.Name, h.Keywords, h.Obj.Ref, h.Obj.Sum)
	}
	return append(fp, cat.Bytes, cat.Queries, cat.expectTree, cat.expectSearch, cat.expectIn)
}

func TestSameSeedSameCatalogue(t *testing.T) {
	a, err := newCatalogue(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newCatalogue(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(a), fingerprint(b)) {
		t.Fatal("seed 7 produced two different catalogues")
	}
	c, err := newCatalogue(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fingerprint(a), fingerprint(c)) {
		t.Fatal("seeds 7 and 8 produced the same catalogue")
	}
	if len(a.Courses) != numCourses {
		t.Fatalf("%d courses, want %d", len(a.Courses), numCourses)
	}
	for _, c := range a.Courses {
		if mb := float64(c.Bytes) / 1e6; mb < 6.5 || mb > 11.5 {
			t.Errorf("course %s holds %.1f MB, want about 7-11", c.Code, mb)
		}
		for _, o := range c.Media {
			if o.Content.Zero() {
				t.Errorf("course %s: %s has no engine model id", c.Code, o.Ref)
			}
		}
	}
}

func TestSameSeedSameOpSequence(t *testing.T) {
	cat, err := newCatalogue(3)
	if err != nil {
		t.Fatal(err)
	}
	z := newZipf(numCourses, 1)
	draw := func(seed uint64, id int) []any {
		var seq []any
		s := userStream(seed, wlSession, id)
		b := userStream(seed, wlBrowse, id)
		p := userStream(seed, wlPublish, id)
		for i := 0; i < 200; i++ {
			seq = append(seq, nextSession(s, z, len(cat.Courses[0].Scenes)), nextStep(b, cat), z.draw(p))
		}
		return seq
	}
	if !reflect.DeepEqual(draw(3, 0), draw(3, 0)) {
		t.Fatal("same seed and user gave different op sequences")
	}
	if reflect.DeepEqual(draw(3, 0), draw(3, 1)) {
		t.Fatal("two users share one op sequence")
	}
	if reflect.DeepEqual(draw(3, 0), draw(4, 0)) {
		t.Fatal("two seeds share one op sequence")
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(numCourses, 1)
	rng := userStream(1, wlSession, 0)
	counts := make([]int, numCourses)
	for i := 0; i < 100000; i++ {
		counts[z.draw(rng)]++
	}
	// s = 1: rank 0 is drawn twice as often as rank 1, 24 times as often as rank 23.
	if r := float64(counts[0]) / float64(counts[1]); r < 1.9 || r > 2.1 {
		t.Errorf("rank0/rank1 = %.2f, want about 2", r)
	}
	if counts[numCourses-1] == 0 {
		t.Error("the last rank is never drawn")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // the 990th of 1000: ten lie above
		{999, 0.99, false},
		{100, 0.9, true},
		{99, 0.9, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %g) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{20000, 0.999}, {10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.9}, {20, 0.5}, {19, 0}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	var s series
	for i := 1000; i >= 1; i-- {
		s.add(float64(i))
	}
	sm := s.summarize()
	if sm.N != 1000 || sm.P50 != 500 || sm.P99 != 990 || !sm.P99OK || sm.TailQ != 0.99 {
		t.Errorf("1..1000: %+v", sm)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// Fakes with each combination of the optional client interfaces.
type plainClient struct{}

func (plainClient) Call(string, []byte) ([]byte, error) { return nil, nil }
func (plainClient) Close() error                        { return nil }

type pooledOnly struct{ plainClient }

func (pooledOnly) CallInTracePooled(obs.SpanContext, string, []byte) ([]byte, func(), error) {
	return nil, nil, nil
}

func clientInterfaces(c transport.Client) [2]bool {
	_, tc := c.(transport.TraceCaller)
	_, pc := c.(transport.PooledTraceCaller)
	return [2]bool{tc, pc}
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	tcp := transport.NewTCPClient(a)
	defer tcp.Close()
	mux := transport.NewMux()
	log := newSpanLog()
	for name, c := range map[string]transport.Client{
		"tcp":      tcp,
		"loopback": transport.Loopback{H: mux},
		"plain":    plainClient{},
		"pooled":   pooledOnly{},
	} {
		w := wrapClient(c, log, layerClient, 0)
		if got, want := clientInterfaces(w), clientInterfaces(c); got != want {
			t.Errorf("%s: wrapper has TraceCaller/PooledTraceCaller %v, wrapped client %v", name, got, want)
		}
	}
	if got := clientInterfaces(tcp); got != [2]bool{true, true} {
		t.Fatalf("TCP client interfaces %v; the test no longer covers the full wrapper", got)
	}
	for name, h := range map[string]transport.Handler{
		"mux":  mux,
		"func": transport.HandlerFunc(func(string, []byte) ([]byte, error) { return nil, nil }),
	} {
		w := wrapHandler(h, log, layerFront, -1)
		_, got := w.(transport.CtxHandler)
		_, want := h.(transport.CtxHandler)
		if got != want {
			t.Errorf("%s: wrapper CtxHandler %v, wrapped handler %v", name, got, want)
		}
	}
}

func TestWrappersRecordAndForward(t *testing.T) {
	log := newSpanLog()
	mux := transport.NewMux()
	boom := errors.New("boom")
	mux.Register("echo", func(_ string, p []byte) ([]byte, error) { return p, nil })
	mux.Register("fail", func(string, []byte) ([]byte, error) { return nil, boom })
	c := wrapClient(transport.Loopback{H: wrapHandler(mux, log, layerFront, -1)}, log, layerClient, 3)
	out, err := transport.CallInTrace(c, obs.SpanContext{}, "echo", []byte("hi"))
	if err != nil || string(out) != "hi" {
		t.Fatalf("echo: %q %v", out, err)
	}
	if _, err := c.Call("fail", []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("fail: %v", err)
	}
	cs, fs := log.take(layerClient), log.take(layerFront)
	if len(cs) != 2 || len(fs) != 2 {
		t.Fatalf("%d client spans, %d front spans", len(cs), len(fs))
	}
	if cs[0].node != 3 || cs[0].key != fs[0].key || cs[0].failed || !cs[1].failed {
		t.Errorf("spans %+v / %+v", cs, fs)
	}
	if fs[0].start < cs[0].start || fs[0].end > cs[0].end {
		t.Errorf("front span %+v outside client span %+v", fs[0], cs[0])
	}
}

// A synthetic trace: one op making a keyed read and a scatter, with
// every child inside its parent. The layers must account for exactly
// the op's time.
func TestAnalyzeSumsToOpTime(t *testing.T) {
	log := newSpanLog()
	get, tree := transport.MethodGetContent, transport.MethodKeywordTree
	log.add(layerOp, span{node: 0, start: 0, end: 1000})
	log.add(layerClient, span{node: 0, method: get, key: 1, start: 100, end: 400})
	log.add(layerFront, span{node: -1, method: get, key: 1, start: 120, end: 380})
	log.add(layerHop, span{node: 1, method: get, key: 1, start: 130, end: 360})
	log.add(layerShard, span{node: 1, method: get, key: 1, start: 150, end: 300})
	log.add(layerClient, span{node: 0, method: tree, key: 2, start: 500, end: 900})
	log.add(layerFront, span{node: -1, method: tree, key: 2, start: 520, end: 880})
	log.add(layerHop, span{node: 0, method: tree, key: 2, start: 530, end: 700})
	log.add(layerShard, span{node: 0, method: tree, key: 2, start: 540, end: 690})
	log.add(layerHop, span{node: 2, method: tree, key: 2, start: 530, end: 860})
	log.add(layerShard, span{node: 2, method: tree, key: 2, start: 550, end: 800})
	l := analyze(log, 0, 2000)
	want := [numLayerTotals]int64{
		lNav:       1000 - 300 - 400,
		lTransport: (300 - 260) + (400 - 360),
		lCluster:   (260 - 230) + (360 - 330), // scatter: the shard-1 hop ends last
		lHop:       (230 - 150) + (330 - 250),
		lStore:     150 + 250,
	}
	if l.total != want {
		t.Fatalf("totals %v, want %v", l.total, want)
	}
	var sum int64
	for _, v := range l.total {
		sum += v
	}
	if sum != l.opNs {
		t.Fatalf("layers sum to %d, op took %d", sum, l.opNs)
	}
	if l.hops != 3 || l.expected != 3 {
		t.Errorf("hops %d expected %d", l.hops, l.expected)
	}
}

func TestThroughputLeavesOutCheckTime(t *testing.T) {
	m := newMeasured(10, 2)
	m.attempted = 180
	m.checkSeconds = 2 // one second per user
	if got := m.opsPerS(); got != 20 {
		t.Errorf("ops/s %g, want 180 ops over 9 unchecked seconds = 20", got)
	}
	if got := m.checkFrac(); got != 0.1 {
		t.Errorf("check share %g, want 0.1", got)
	}
}

func TestDriftFlagsAChange(t *testing.T) {
	rates := []float64{50, 10, 60, 55, 5, 58, 57, 20, 59, 56}
	if frac, flagged := drift(rates); !flagged || frac != (59+56-50-10)/60.0 {
		t.Errorf("drift %g flagged %v", frac, flagged)
	}
	if _, flagged := drift([]float64{100, 100, 100, 100, 100, 100, 100, 100, 80, 80}); !flagged {
		t.Error("a 20% fall over the run is not flagged")
	}
	if _, flagged := drift([]float64{100, 97, 103, 100, 99, 101, 100, 98, 102, 96}); flagged {
		t.Error("a steady run is flagged")
	}
}
