package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mits/internal/obs"
	"mits/internal/transport"
)

// Critical-path attribution of a traced run. For each user operation:
//
//	navigator  = op − the union of its client calls (navigator, MHEG
//	             engine, cache and DBClient codec; in publish the
//	             users call DBClient directly, so only the codec)
//	transport  = client call − the front door's handler span for it
//	school     = front-door handler span of a school call
//	cluster    = front-door handler span − its critical hop(s)
//	cluster.hop= hop span − the shard handler span for it
//	mediastore = shard handler span on the critical path
//
// A keyed read's hops run one after another (the failover ladder), so
// all are critical; a scatter's shards run in parallel and the shard
// whose last hop ends latest is critical. A child that cannot be
// matched leaves its parent's whole interval unattributed, so the
// layers plus the unattributed remainder always sum to the op time.

// layer names, in critical-path order.
var layerNames = []string{"navigator", "transport", "school", "cluster", "cluster.hop", "mediastore", "unattributed"}

const (
	lNav = iota
	lTransport
	lSchool
	lCluster
	lHop
	lStore
	lUnattributed
	numLayerTotals
)

// store handler metric names by wire method.
var storeMethods = map[string]string{
	transport.MethodGetContent:       "get_content",
	transport.MethodGetContentStream: "stream_chunk",
	transport.MethodGetDoc:           "get_doc",
	transport.MethodKeywordTree:      "keyword_tree",
	transport.MethodDocByKeyword:     "doc_by_keyword",
	transport.MethodPutContent:       "put_content",
	transport.MethodPutDoc:           "put_doc",
}

// transport call classes.
func callClass(method string) string {
	switch method {
	case transport.MethodGetContent:
		return "content"
	case transport.MethodGetContentStream:
		return "chunk"
	}
	if strings.HasPrefix(method, "db.") {
		return "meta"
	}
	return "school"
}

func isScatter(method string) bool {
	return method == transport.MethodListDocs || method == transport.MethodDocByKeyword || method == transport.MethodKeywordTree
}

func isWrite(method string) bool {
	return method == transport.MethodPutContent || method == transport.MethodPutDoc
}

func isPrimary(node int) bool { return node%nodesPerShard == 0 }

// index finds spans by (node, method, payload key), sorted by start,
// and hands each out at most once.
type index struct {
	spans   []span
	claimed []bool
	by      map[idxKey][]int
}

type idxKey struct {
	node   int
	method string
	key    uint64
}

func newIndex(spans []span) *index {
	ix := &index{spans: spans, claimed: make([]bool, len(spans)), by: make(map[idxKey][]int)}
	for i, s := range spans {
		k := idxKey{s.node, s.method, s.key}
		ix.by[k] = append(ix.by[k], i)
	}
	for _, list := range ix.by {
		sort.Slice(list, func(a, b int) bool { return spans[list[a]].start < spans[list[b]].start })
	}
	return ix
}

// find returns the position of the earliest unclaimed span for k
// inside [lo, hi], or -1.
func (ix *index) find(k idxKey, lo, hi int64) int {
	list := ix.by[k]
	i := sort.Search(len(list), func(i int) bool { return ix.spans[list[i]].start >= lo })
	for ; i < len(list); i++ {
		s := &ix.spans[list[i]]
		if s.start > hi {
			break
		}
		if !ix.claimed[list[i]] && s.end <= hi {
			return list[i]
		}
	}
	return -1
}

// peek is find without claiming.
func (ix *index) peek(k idxKey, lo, hi int64) (*span, bool) {
	if i := ix.find(k, lo, hi); i >= 0 {
		return &ix.spans[i], true
	}
	return nil, false
}

// claim returns the earliest unclaimed span for k inside [lo, hi] and
// marks it taken.
func (ix *index) claim(k idxKey, lo, hi int64) (*span, bool) {
	i := ix.find(k, lo, hi)
	if i < 0 {
		return nil, false
	}
	ix.claimed[i] = true
	return &ix.spans[i], true
}

// layers is the result of one analysis.
type layers struct {
	ops      int
	opNs     int64
	total    [numLayerTotals]int64 // ns summed over ops
	rpcs     int
	wire     int64 // request + response payload bytes at the navigator
	data     int64 // media bytes in content responses
	saved    int64 // content bytes served without crossing the wire
	hops     int
	hopCalls int // router calls whose hops were found
	expected int // hops the router calls needed without retries

	tSelf    map[string]*series // transport self time by call class
	chunkRTT series
	school   series
	cSelf    map[string]*series // router self time: keyed, scatter
	hopSelf  series
	store    map[string]*series // shard handler time by method
	replLag  series
	skew     float64
}

func newLayers() *layers {
	l := &layers{tSelf: map[string]*series{}, cSelf: map[string]*series{}, store: map[string]*series{}}
	for _, c := range []string{"meta", "content", "chunk", "school"} {
		l.tSelf[c] = &series{}
	}
	for _, c := range []string{"keyed", "scatter"} {
		l.cSelf[c] = &series{}
	}
	for _, m := range storeMethods {
		l.store[m] = &series{}
	}
	return l
}

func within(s span, from, to int64) bool { return s.end >= from && s.end < to }

// links are the parent → child matches, made layer by layer with each
// layer's parents taken in start order, so that of two concurrent
// identical requests the earlier parent gets the earlier child.
type links struct {
	front map[*span]*span     // client call → front-door span
	hops  map[*span][][]*span // front-door span → hops, per shard
	shard map[*span]*span     // hop → shard handler span
}

func byStart(spans []span) []*span {
	out := make([]*span, len(spans))
	for i := range spans {
		out[i] = &spans[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

func link(clients []span, front, hops, shards *index) *links {
	ln := &links{front: map[*span]*span{}, hops: map[*span][][]*span{}, shard: map[*span]*span{}}
	for _, c := range byStart(clients) {
		if f, ok := front.claim(idxKey{-1, c.method, c.key}, c.start, c.end); ok {
			ln.front[c] = f
		}
	}
	for _, f := range byStart(front.spans) {
		if !strings.HasPrefix(f.method, "db.") {
			continue
		}
		perShard := make([][]*span, numShards)
		found := false
		for sh := range perShard {
			perShard[sh] = hops.chain(sh, f)
			found = found || len(perShard[sh]) > 0
		}
		if found {
			ln.hops[f] = perShard
		}
	}
	for _, h := range byStart(hops.spans) {
		if s, ok := shards.claim(idxKey{h.node, h.method, h.key}, h.start, h.end); ok {
			ln.shard[h] = s
		}
	}
	return ln
}

// chain claims the hops the router made to shard sh for front-door
// span f: the failover ladder's failed attempts up to and including
// the first success, in start order. Writes reach only the primary; a
// replica's put is replication, off the caller's path.
func (ix *index) chain(sh int, f *span) []*span {
	var out []*span
	for {
		var best *span
		bestNode := -1
		for r := 0; r < nodesPerShard; r++ {
			node := sh*nodesPerShard + r
			if isWrite(f.method) && !isPrimary(node) {
				continue
			}
			if h, ok := ix.peek(idxKey{node, f.method, f.key}, f.start, f.end); ok && (best == nil || h.start < best.start) {
				best, bestNode = h, node
			}
		}
		if best == nil {
			return out
		}
		ix.claim(idxKey{bestNode, f.method, f.key}, f.start, f.end)
		out = append(out, best)
		if !best.failed {
			return out
		}
	}
}

// analyze attributes every op that completed in [from, to).
func analyze(log *spanLog, from, to int64) *layers {
	l := newLayers()
	clientSpans := log.take(layerClient)
	front := newIndex(log.take(layerFront))
	hops := newIndex(log.take(layerHop))
	shards := newIndex(log.take(layerShard))
	ln := link(clientSpans, front, hops, shards)

	clients := make(map[int][]*span)
	for _, c := range byStart(clientSpans) {
		clients[c.node] = append(clients[c.node], c)
	}
	for _, op := range log.take(layerOp) {
		if !within(op, from, to) {
			continue
		}
		l.ops++
		l.opNs += op.dur()
		cs := clients[op.node]
		i := sort.Search(len(cs), func(i int) bool { return cs[i].start >= op.start })
		var covered, lastEnd int64 = 0, op.start
		wireData := 0
		for ; i < len(cs) && cs[i].start <= op.end; i++ {
			c := cs[i]
			if c.end > op.end {
				continue
			}
			// union of client intervals
			if c.end > lastEnd {
				covered += c.end - max(c.start, lastEnd)
				lastEnd = c.end
			}
			l.rpcs++
			l.wire += int64(c.reqBytes + c.respBytes)
			l.data += int64(c.dataBytes)
			wireData += c.dataBytes
			l.call(c, ln)
		}
		l.total[lNav] += op.dur() - covered
		if op.asked > wireData {
			l.saved += int64(op.asked - wireData)
		}
	}

	// Store handler time and shard load over every shard span in the
	// window, replication applies included.
	busy := make([]int64, numShards)
	for _, s := range shards.spans {
		if !within(s, from, to) {
			continue
		}
		if name, ok := storeMethods[s.method]; ok {
			l.store[name].add(ms(time.Duration(s.dur())))
		}
		busy[s.node/nodesPerShard] += s.dur()
	}
	var sum, top int64
	for _, b := range busy {
		sum += b
		top = max(top, b)
	}
	if sum > 0 {
		l.skew = float64(top) / (float64(sum) / float64(numShards))
	}
	l.replication(hops.spans, from, to)
	return l
}

// call attributes one client call of an op along its matched children.
func (l *layers) call(c *span, ln *links) {
	f, ok := ln.front[c]
	if !ok {
		l.total[lUnattributed] += c.dur()
		return
	}
	self := c.dur() - f.dur()
	l.total[lTransport] += self
	l.tSelf[callClass(c.method)].add(ms(time.Duration(self)))
	if c.method == transport.MethodGetContentStream {
		l.chunkRTT.add(ms(time.Duration(c.dur())))
	}
	if !strings.HasPrefix(c.method, "db.") {
		l.total[lSchool] += f.dur()
		l.school.add(ms(time.Duration(f.dur())))
		return
	}
	perShard, ok := ln.hops[f]
	if !ok {
		l.total[lUnattributed] += f.dur()
		return
	}
	want := 1
	kind := "keyed"
	if isScatter(c.method) {
		want, kind = numShards, "scatter"
	}
	var critical []*span
	var lastEnd int64 = -1
	for _, hs := range perShard {
		l.hops += len(hs)
		if n := len(hs); n > 0 && hs[n-1].end > lastEnd {
			lastEnd, critical = hs[n-1].end, hs
		}
	}
	l.hopCalls++
	l.expected += want

	var hopTime int64
	for _, h := range critical {
		hopTime += h.dur()
	}
	cself := f.dur() - hopTime
	l.total[lCluster] += cself
	l.cSelf[kind].add(ms(time.Duration(cself)))
	for _, h := range critical {
		s, ok := ln.shard[h]
		if !ok {
			l.total[lUnattributed] += h.dur()
			continue
		}
		l.total[lHop] += h.dur() - s.dur()
		l.hopSelf.add(ms(time.Duration(h.dur() - s.dur())))
		l.total[lStore] += s.dur()
	}
}

// replication pairs each primary put with its replica's apply of the
// same payload, in order, and records primary ack → replica apply.
func (l *layers) replication(hops []span, from, to int64) {
	type key struct {
		shard  int
		method string
		key    uint64
	}
	acks := make(map[key][]int64)
	var applies []span
	for _, h := range hops {
		if !isWrite(h.method) || h.failed {
			continue
		}
		k := key{h.node / nodesPerShard, h.method, h.key}
		if isPrimary(h.node) {
			acks[k] = append(acks[k], h.end)
		} else {
			applies = append(applies, h)
		}
	}
	for _, q := range acks {
		sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
	}
	sort.Slice(applies, func(i, j int) bool { return applies[i].end < applies[j].end })
	for _, a := range applies {
		k := key{a.node / nodesPerShard, a.method, a.key}
		q := acks[k]
		if len(q) == 0 || q[0] > a.end {
			continue
		}
		acks[k] = q[1:]
		if q[0] >= from && q[0] < to {
			l.replLag.add(ms(time.Duration(a.end - q[0])))
		}
	}
}

func (l *layers) perOp(ns int64) float64 {
	if l.ops == 0 {
		return 0
	}
	return ms(time.Duration(ns)) / float64(l.ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cacheCounts snapshots the navigator caches' shared counters.
type cacheCounts struct{ hits, misses int64 }

func readCacheCounts() cacheCounts {
	return cacheCounts{
		hits:   obs.GetCounter("cache_hits_total", "cache", cacheName).Value(),
		misses: obs.GetCounter("cache_misses_total", "cache", cacheName).Value(),
	}
}

func (c cacheCounts) sub(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits - o.hits, c.misses - o.misses}
}

// metrics is the per-layer result of a traced run.
func (l *layers) metrics(cc cacheCounts, backlog int, untracedOps, tracedOps float64) map[string]metric {
	m := map[string]metric{
		"navigator.self_ms":           {l.perOp(l.total[lNav]), "ms"},
		"navigator.rpcs_per_op":       {ratio(float64(l.rpcs), float64(l.ops)), "count"},
		"cache.hit_ratio":             {ratio(float64(cc.hits), float64(cc.hits+cc.misses)), "ratio"},
		"cache.bytes_saved_per_op":    {ratio(float64(l.saved), float64(l.ops)), "B"},
		"transport.self_ms":           {l.perOp(l.total[lTransport]), "ms"},
		"transport.wire_bytes_per_op": {ratio(float64(l.wire), float64(l.ops)), "B"},
		"transport.payload_ratio":     {ratio(float64(l.data), float64(l.wire)), "ratio"},
		"school.self_ms":              {l.perOp(l.total[lSchool]), "ms"},
		"cluster.self_ms":             {l.perOp(l.total[lCluster]), "ms"},
		"cluster.hops_per_call":       {ratio(float64(l.hops), float64(l.hopCalls)), "count"},
		"cluster.hop_retry_ratio":     {ratio(float64(l.hops-l.expected), float64(l.expected)), "ratio"},
		"cluster.shard_skew":          {l.skew, "ratio"},
		"cluster.hop.self_ms":         {l.perOp(l.total[lHop]), "ms"},
		"cluster.repl_backlog_max":    {float64(backlog), "count"},
		"mediastore.self_ms":          {l.perOp(l.total[lStore]), "ms"},
		"trace.op_ms":                 {l.perOp(l.opNs), "ms"},
		"trace.unattributed_ms":       {l.perOp(l.total[lUnattributed]), "ms"},
		"trace.unattributed_frac":     {ratio(float64(l.total[lUnattributed]), float64(l.opNs)), "ratio"},
		"trace.overhead_frac":         {1 - ratio(tracedOps, untracedOps), "ratio"},
	}
	pct := func(name string, s *series) {
		sm := s.summarize()
		m[name+".p50"] = metric{sm.P50, "ms"}
		m[name+".p99"] = metric{sm.P99, "ms"}
	}
	for c, s := range l.tSelf {
		pct("transport.self_ms."+c, s)
	}
	pct("transport.chunk_rtt_ms", &l.chunkRTT)
	pct("school.handler_ms", &l.school)
	for c, s := range l.cSelf {
		pct("cluster.self_ms."+c, s)
	}
	pct("cluster.hop.self_ms", &l.hopSelf)
	pct("cluster.repl_lag_ms", &l.replLag)
	for name, s := range l.store {
		pct("mediastore.handler_ms."+name, s)
	}
	return m
}

// breakdown is the per-layer table for the report: mean critical-path
// self time per op, share of the op, and sample counts.
func (l *layers) breakdown() map[string]any {
	rows := make([]map[string]any, 0, numLayerTotals)
	var sum int64
	for i, name := range layerNames {
		sum += l.total[i]
		rows = append(rows, map[string]any{
			"layer":   name,
			"self_ms": l.perOp(l.total[i]),
			"share":   ratio(float64(l.total[i]), float64(l.opNs)),
		})
	}
	counts := map[string]int{
		"transport.chunk_rtt_ms": len(l.chunkRTT.v),
		"school.handler_ms":      len(l.school.v),
		"cluster.hop.self_ms":    len(l.hopSelf.v),
		"cluster.repl_lag_ms":    len(l.replLag.v),
	}
	for c, s := range l.tSelf {
		counts["transport.self_ms."+c] = len(s.v)
	}
	for c, s := range l.cSelf {
		counts["cluster.self_ms."+c] = len(s.v)
	}
	for name, s := range l.store {
		counts["mediastore.handler_ms."+name] = len(s.v)
	}
	return map[string]any{
		"ops":           l.ops,
		"op_ms":         l.perOp(l.opNs),
		"layers_sum_ms": l.perOp(sum),
		"rows":          rows,
		"sample_counts": counts,
	}
}

func printLayers(cfg config, l *layers) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d traced: %d ops, mean %.4f ms\n", cfg.workload, cfg.seed, l.ops, l.perOp(l.opNs))
	var sum int64
	for i, name := range layerNames {
		sum += l.total[i]
		fmt.Fprintf(os.Stderr, "  %-13s %10.4f ms  %5.1f%%\n", name, l.perOp(l.total[i]), 100*ratio(float64(l.total[i]), float64(l.opNs)))
	}
	fmt.Fprintf(os.Stderr, "  %-13s %10.4f ms\n", "sum", l.perOp(sum))
}

// backlogSampler tracks the router's largest replication backlog.
type backlogSampler struct {
	quit chan struct{}
	done chan struct{}
	max  int // written by the sampler goroutine until done closes
}

const backlogEvery = time.Millisecond

func startBacklogSampler(t *topo) *backlogSampler {
	b := &backlogSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		tick := time.NewTicker(backlogEvery)
		defer tick.Stop()
		for {
			select {
			case <-b.quit:
				return
			case <-tick.C:
				b.max = max(b.max, t.router.Backlog())
			}
		}
	}()
	return b
}

// stop ends sampling, waits for the sampler and returns the maximum.
func (b *backlogSampler) stop() int {
	close(b.quit)
	<-b.done
	return b.max
}
