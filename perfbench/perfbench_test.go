package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/topic"
)

// fakeClock is a manually advanced span clock.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

// fakeTransport charges a fixed cost per broadcast.
type fakeTransport struct {
	c    *fakeClock
	cost int64
}

func (f fakeTransport) Broadcast(event.Message) { f.c.t += f.cost }

// fakeProto spends 50 ns, broadcasts, spends 20 ns and broadcasts
// again per handled message; a timer fire broadcasts once.
type fakeProto struct {
	c   *fakeClock
	env proto.Env
}

func (p *fakeProto) HandleMessage(m event.Message) error {
	p.c.t += 50
	p.env.Transport.Broadcast(m)
	p.c.t += 20
	p.env.Transport.Broadcast(m)
	return nil
}

func (p *fakeProto) Publish(topic.Topic, []byte, time.Duration) (event.ID, error) {
	p.c.t += 7
	return event.ID{}, nil
}
func (p *fakeProto) Subscribe(topic.Topic) error { return nil }
func (p *fakeProto) Unsubscribe(topic.Topic)     {}
func (p *fakeProto) Stats() proto.Stats          { return proto.Stats{} }
func (p *fakeProto) Stop()                       {}

// manualSched runs After callbacks when fired by the test.
type manualSched struct{ pending []func() }

func (s *manualSched) Now() time.Duration { return 0 }
func (s *manualSched) After(_ time.Duration, fn func()) proto.Timer {
	s.pending = append(s.pending, fn)
	return nil
}

var fakeClk = &fakeClock{}

func init() {
	proto.RegisterProtocol(proto.Definition{
		Name:        "perfbench-test-fake",
		Description: "test protocol with a scripted clock",
		Params:      core0{},
		New: func(_ proto.Params, env proto.Env) (proto.Disseminator, error) {
			return &fakeProto{c: fakeClk, env: env}, nil
		},
	})
}

type core0 struct{}

func (core0) Validate() error { return nil }

func TestSelfTimeSubtractsNestedBroadcastOnce(t *testing.T) {
	c := fakeClk
	tr := newSimTracer(c.now)
	sched := &manualSched{}
	d, err := tr.build("perfbench-test-fake", core0{}, proto.Env{
		ID:        3,
		Sched:     sched,
		Transport: fakeTransport{c: c, cost: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two handled messages: 2 x (50 + 30 + 20 + 30) = 260 ns total,
	// of which 4 x 30 = 120 ns are nested broadcasts.
	for i := 0; i < 2; i++ {
		if err := d.HandleMessage(event.Heartbeat{From: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// A timer fire: 5 ns of own work around one nested broadcast.
	d.(*tracedProto).st.nest.addChild(999) // no span open: charged to nobody
	fp := d.(*tracedProto).Disseminator.(*fakeProto)
	fp.env.Sched.After(time.Second, func() {
		c.t += 5
		fp.env.Transport.Broadcast(event.Heartbeat{})
	})
	sched.pending[0]()
	if _, err := d.Publish(topic.MustParse(".t"), nil, time.Second); err != nil {
		t.Fatal(err)
	}
	var s simSample
	s.WallS = 1e-6 // 1000 ns of traced wall time
	counters := map[string]float64{}
	spans := tr.summaries(&s, counters)
	h, tm, pb, bc := spans["core.handle"], spans["core.timer"], spans["core.publish"], spans["mac.broadcast"]
	if h.Count != 2 || h.TotalS*1e9 != 260 || h.SelfS*1e9 != 140 {
		t.Errorf("handle span: %+v, want 2 calls, 260 ns total, 140 ns self", h)
	}
	if tm.Count != 1 || tm.TotalS*1e9 != 35 || tm.SelfS*1e9 != 5 {
		t.Errorf("timer span: %+v, want 1 fire, 35 ns total, 5 ns self", tm)
	}
	if pb.Count != 1 || pb.SelfS*1e9 != 7 {
		t.Errorf("publish span: %+v, want 1 call, 7 ns self", pb)
	}
	if bc.Count != 5 || bc.TotalS*1e9 != 150 {
		t.Errorf("broadcast span: %+v, want 5 calls, 150 ns", bc)
	}
	// Self times plus the enqueue account for every traced nanosecond
	// exactly once: 140 + 5 + 7 + 150 = 302, leaving 698 of the 1000.
	if got := counters["netsim.substrate_s"] * 1e9; math.Abs(got-698) > 1e-6 {
		t.Errorf("substrate = %v ns, want 698", got)
	}
}

func TestFingerprintMismatchCountsFailed(t *testing.T) {
	want := fingerprints[simMetroSlice.name][1]
	cases := []struct {
		name   string
		s      simSample
		err    error
		failed int
	}{
		{"match", simSample{Timed: true, ScenarioSeed: 1, Fingerprint: want}, nil, 0},
		{"mismatch", simSample{Timed: true, ScenarioSeed: 1, Fingerprint: strings.Repeat("0", 64)}, nil, 1},
		{"unrecorded seed", simSample{Timed: true, ScenarioSeed: -1, Fingerprint: want}, nil, 1},
		{"run error", simSample{}, os.ErrInvalid, 1},
		{"probe only", simSample{ScenarioSeed: 1}, nil, 0},
	}
	for _, c := range cases {
		var o outcome
		ok := check(&o, simMetroSlice, c.s, c.err)
		if o.attempted != 1 || o.failed != c.failed || ok != (c.failed == 0) {
			t.Errorf("%s: attempted %d failed %d ok %v, want 1/%d/%v", c.name, o.attempted, o.failed, ok, c.failed, c.failed == 0)
		}
		if r := o.result(endToEnd); r.Correct != (c.failed == 0) {
			t.Errorf("%s: correct = %v with %d failed", c.name, r.Correct, o.failed)
		}
	}
}

func TestQuantileTinySamples(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{5}, 0.99, 5},
		{[]float64{3, 1}, 0.5, 2},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{1, 2, 3, 4}, 0.99, 3.97},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
	// The histogram estimate is exact on one sample and stays inside
	// [min, max] on two.
	var h metrics.LogHist
	h.Add(0.37)
	if got, err := histQuantile(&h, 0.5); err != nil || got != 0.37 {
		t.Errorf("one-sample histQuantile = %v, %v; want 0.37", got, err)
	}
	h.Add(0.41)
	if got, err := histQuantile(&h, 0.5); err != nil || got < 0.37 || got > 0.41 {
		t.Errorf("two-sample histQuantile = %v, %v; want within [0.37, 0.41]", got, err)
	}
	var empty metrics.LogHist
	if got, err := histQuantile(&empty, 0.5); err != nil || got != 0 {
		t.Errorf("empty histQuantile = %v, %v; want 0", got, err)
	}
}

func TestScenarioSeedWalksThePool(t *testing.T) {
	for _, w := range []simWorkload{simMetroSlice, simMetro5kShort} {
		pool := pools[w.name]
		if len(pool) != w.poolSize {
			t.Fatalf("%s: pool %v, want %d seeds", w.name, pool, w.poolSize)
		}
		for _, s := range pool {
			if _, ok := fingerprints[w.name][s]; !ok {
				t.Errorf("%s: pool seed %d has no recorded fingerprint", w.name, s)
			}
		}
		if got := scenarioSeed(w, 1, 0); got != pool[0] {
			t.Errorf("%s: run seed 1 starts at scenario seed %d, want %d", w.name, got, pool[0])
		}
		for _, seed := range []int64{-40, -1, 0, 1, 7, 16, 17, 1 << 40} {
			seen := map[int64]bool{}
			for i := 0; i < w.poolSize; i++ {
				seen[scenarioSeed(w, seed, i)] = true
			}
			if len(seen) != w.poolSize {
				t.Errorf("%s: run seed %d visits %d distinct pool seeds in %d samples", w.name, seed, len(seen), w.poolSize)
			}
		}
	}
}

func TestRecordedSeedOneMatchesGolden(t *testing.T) {
	b, err := os.ReadFile("../internal/exp/testdata/golden/metro-slice-fingerprint.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprints[simMetroSlice.name][1], strings.TrimSpace(string(b)); got != want {
		t.Errorf("recorded metro-slice seed 1 = %s, golden %s", got, want)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
}

// TestTracedTiledRunKeepsFingerprint runs a short metro-slice tiled
// across two shards, so the tile fan drives the traced protocol from
// worker goroutines (run it with -race), and checks tracing changed
// nothing.
func TestTracedTiledRunKeepsFingerprint(t *testing.T) {
	def, ok := netsim.LookupScenario("metro-slice")
	if !ok {
		t.Fatal("metro-slice not registered")
	}
	sc := def.Instantiate(3)
	sc.Warmup, sc.Measure, sc.Tiles = 2*time.Second, 4*time.Second, 2
	plain, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	tr := newSimTracer(wallClock())
	sc.Protocol = tr.wrap(sc.Protocol)
	traced, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Fingerprint() != plain.Fingerprint() {
		t.Fatal("tracing changed the run's fingerprint")
	}
	counters := resultCounters(traced)
	tr.summaries(&simSample{WallS: 1}, counters)
	if counters["core.handle_calls"] == 0 || counters["mac.broadcast_calls"] == 0 || counters["core.timer_fires"] == 0 {
		t.Fatalf("traced run recorded no spans: %v", counters)
	}
	if runtime.GOMAXPROCS(0) > 1 && counters["netsim.tile_fanned_frames"] == 0 {
		t.Fatalf("the tile fan never ran: %v", counters)
	}
}

// TestMeshTracedWindow runs a one-second traced udp-mesh window end to
// end: every pair delivered, conservation holds and the wrappers saw
// every broadcast and every decoded datagram.
func TestMeshTracedWindow(t *testing.T) {
	tr := newMeshTracer(wallClock())
	r, err := runMeshWindow(5, time.Second, tr)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	var o outcome
	checkMesh(&o, r)
	tr.check(&o, r)
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("traced mesh window: %d of %d operations failed", o.failed, o.attempted)
	}
	v := map[string]float64{}
	tr.report(v, r)
	if v["transport.broadcast_calls"] == 0 || v["core.handle_calls"] == 0 || v["pubsub.publish_calls"] == 0 {
		t.Fatalf("traced mesh recorded no spans: %v", v)
	}
}
