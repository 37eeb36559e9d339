package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// The traced runs time calls at layer boundaries from outside the
// program and fold each span into an in-memory aggregate per (layer,
// op): count, total, self time and a duration histogram. About two
// million spans per metro-slice run are never kept individually.

// aggShards spreads one aggregate over independently locked shards so
// the tile fan's worker goroutines rarely contend on a span record.
const aggShards = 16

type aggShard struct {
	mu    sync.Mutex
	count int64
	total int64           // ns
	self  int64           // ns
	hist  metrics.LogHist // in ms: LogHist spans 1e-4 .. 420 units
	_     [64]byte        // keep neighbouring shards off one cache line
}

// opAgg aggregates the spans of one (layer, op).
type opAgg struct {
	shards [aggShards]aggShard
}

// add folds one span of dur ns, of which self ns were not spent in
// nested child spans; key picks the shard (the node ID).
func (a *opAgg) add(key int, dur, self int64) {
	s := &a.shards[uint(key)%aggShards]
	s.mu.Lock()
	s.count++
	s.total += dur
	s.self += self
	s.hist.Add(float64(dur) / 1e6)
	s.mu.Unlock()
}

// aggSummary is a merged opAgg.
type aggSummary struct {
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	P50S   float64 `json:"p50_s"`
	P99S   float64 `json:"p99_s"`
}

func (a *opAgg) summary() aggSummary {
	var out aggSummary
	var h metrics.LogHist
	var total, self int64
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		out.Count += s.count
		total += s.total
		self += s.self
		h.Merge(s.hist)
		s.mu.Unlock()
	}
	out.TotalS, out.SelfS = float64(total)/1e9, float64(self)/1e9
	p50, _ := histQuantile(&h, 0.5)
	p99, _ := histQuantile(&h, 0.99)
	out.P50S, out.P99S = p50/1e3, p99/1e3
	return out
}

// nest tracks the child time spent inside one node's open span. A
// node's spans never overlap one another (the simulator drives each
// node from one goroutine at a time; the real path serializes a node's
// protocol under core.Safe's lock), so one open span per node is
// enough. A child recorded while no span is open belongs to no parent
// and is subtracted from nothing.
type nest struct {
	open  atomic.Bool
	child atomic.Int64
}

func (n *nest) begin() {
	n.child.Store(0)
	n.open.Store(true)
}

// end closes the span and returns its children's total.
func (n *nest) end() int64 {
	n.open.Store(false)
	return n.child.Swap(0)
}

func (n *nest) addChild(d int64) {
	if n.open.Load() {
		n.child.Add(d)
	}
}

// clock returns monotonic nanoseconds; tests substitute a fake.
type clock func() int64

func wallClock() clock {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// spanOf runs fn as a span of agg on node st: its self time excludes
// whatever children recorded into st while it ran.
func spanOf(now clock, agg *opAgg, key int, st *nest, fn func()) {
	st.begin()
	t0 := now()
	fn()
	d := now() - t0
	agg.add(key, d, d-st.end())
}

// childOf runs fn as a child span: recorded in agg and charged to the
// node's open span, if any.
func childOf(now clock, agg *opAgg, key int, st *nest, fn func()) {
	t0 := now()
	fn()
	d := now() - t0
	agg.add(key, d, d)
	st.addChild(d)
}
