package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/topic"
)

// simTracer times the simulator's protocol layer from outside: it is a
// registered protocol whose factory wraps four proto.Env entries
// (scheduler callbacks, Transport.Broadcast into the MAC port, the
// runner's OnDeliver and the mobility Speed query), builds the real
// protocol on the wrapped Env, and wraps HandleMessage and Publish.
type simTracer struct {
	now clock
	// handle, timer and publish are core spans; broadcast is the MAC
	// enqueue nested inside them, subtracted from their self time.
	handle, timer, publish, broadcast opAgg

	mu    sync.Mutex
	nodes []*simNodeState // by node ID, reused across crash recoveries
}

type simNodeState struct {
	nest       nest
	deliveries atomic.Int64
	speedCalls atomic.Int64
}

func newSimTracer(now clock) *simTracer { return &simTracer{now: now} }

// wrap registers a protocol that builds the spec's protocol under this
// tracer and returns the spec selecting it, with the same params.
func (t *simTracer) wrap(spec netsim.ProtocolSpec) netsim.ProtocolSpec {
	inner := spec.String()
	def, _ := proto.LookupProtocol(inner)
	name := fmt.Sprintf("perfbench-traced-%s-%d", inner, tracedProtocols.Add(1))
	proto.RegisterProtocol(proto.Definition{
		Name:        name,
		Description: "perfbench span recorder around " + inner,
		Params:      def.Params,
		New: func(p proto.Params, env proto.Env) (proto.Disseminator, error) {
			return t.build(inner, p, env)
		},
	})
	return netsim.ProtocolSpec{Name: name, Params: spec.Params}
}

// tracedProtocols numbers the registered tracing protocols: the
// protocol registry is process-wide and names are registered once.
var tracedProtocols atomic.Int64

func (t *simTracer) state(id event.NodeID) *simNodeState {
	t.mu.Lock()
	defer t.mu.Unlock()
	for int(id) >= len(t.nodes) {
		t.nodes = append(t.nodes, nil)
	}
	if t.nodes[id] == nil {
		t.nodes[id] = &simNodeState{}
	}
	return t.nodes[id]
}

// build is the traced factory: wrap the Env, build the inner protocol
// on it, wrap the result.
func (t *simTracer) build(inner string, p proto.Params, env proto.Env) (proto.Disseminator, error) {
	st := t.state(env.ID)
	key := int(env.ID)
	env.Transport = tracedTransport{t: t, inner: env.Transport, st: st, key: key}
	env.Sched = tracedSched{t: t, inner: env.Sched, st: st, key: key}
	if deliver := env.OnDeliver; deliver != nil {
		env.OnDeliver = func(ev event.Event) {
			st.deliveries.Add(1)
			deliver(ev)
		}
	}
	if speed := env.Speed; speed != nil {
		env.Speed = func() float64 {
			st.speedCalls.Add(1)
			return speed()
		}
	}
	d, err := proto.Build(inner, p, env)
	if err != nil {
		return nil, err
	}
	return &tracedProto{Disseminator: d, t: t, st: st, key: key}, nil
}

type tracedTransport struct {
	t     *simTracer
	inner proto.Transport
	st    *simNodeState
	key   int
}

func (tr tracedTransport) Broadcast(m event.Message) {
	childOf(tr.t.now, &tr.t.broadcast, tr.key, &tr.st.nest, func() { tr.inner.Broadcast(m) })
}

type tracedSched struct {
	t     *simTracer
	inner proto.Scheduler
	st    *simNodeState
	key   int
}

func (s tracedSched) Now() time.Duration { return s.inner.Now() }

func (s tracedSched) After(d time.Duration, fn func()) proto.Timer {
	return s.inner.After(d, func() { spanOf(s.t.now, &s.t.timer, s.key, &s.st.nest, fn) })
}

type tracedProto struct {
	proto.Disseminator
	t   *simTracer
	st  *simNodeState
	key int
}

func (p *tracedProto) HandleMessage(m event.Message) (err error) {
	spanOf(p.t.now, &p.t.handle, p.key, &p.st.nest, func() { err = p.Disseminator.HandleMessage(m) })
	return err
}

func (p *tracedProto) Publish(tp topic.Topic, payload []byte, validity time.Duration) (id event.ID, err error) {
	spanOf(p.t.now, &p.t.publish, p.key, &p.st.nest, func() {
		id, err = p.Disseminator.Publish(tp, payload, validity)
	})
	return id, err
}

// summaries merges the aggregates, writes the per-layer metrics into
// counters and returns the per-(layer, op) table.
func (t *simTracer) summaries(s *simSample, counters map[string]float64) map[string]aggSummary {
	out := map[string]aggSummary{
		"core.handle":   t.handle.summary(),
		"core.timer":    t.timer.summary(),
		"core.publish":  t.publish.summary(),
		"mac.broadcast": t.broadcast.summary(),
	}
	var deliveries, speeds int64
	t.mu.Lock()
	for _, st := range t.nodes {
		if st != nil {
			deliveries += st.deliveries.Load()
			speeds += st.speedCalls.Load()
		}
	}
	t.mu.Unlock()
	h, tm, pb, bc := out["core.handle"], out["core.timer"], out["core.publish"], out["mac.broadcast"]
	counters["core.handle_calls"] = float64(h.Count)
	counters["core.handle_self_s"] = h.SelfS
	counters["core.timer_fires"] = float64(tm.Count)
	counters["core.timer_self_s"] = tm.SelfS
	counters["core.publish_calls"] = float64(pb.Count)
	counters["core.publish_self_s"] = pb.SelfS
	counters["mac.broadcast_calls"] = float64(bc.Count)
	counters["mac.enqueue_s"] = bc.TotalS
	counters["netsim.substrate_s"] = s.WallS - h.SelfS - tm.SelfS - pb.SelfS - bc.TotalS
	counters["netsim.deliveries"] = float64(deliveries)
	counters["mobility.speed_calls"] = float64(speeds)
	return out
}

// resultCounters extracts the deterministic per-layer counters of a
// run: MAC and protocol totals over the measurement window and the
// tile layer's activity. A perf change that moves them changed
// behaviour.
func resultCounters(res *netsim.Result) map[string]float64 {
	var sent, recv, lost, defers, msgs, evRecv, dups, parasites float64
	for _, n := range res.Nodes {
		sent += float64(n.MAC.FramesSent)
		recv += float64(n.MAC.FramesReceived)
		lost += float64(n.MAC.FramesLost)
		defers += float64(n.MAC.Defers)
		msgs += float64(n.Proto.HeartbeatsSent + n.Proto.IDListsSent + n.Proto.EventMsgsSent)
		evRecv += float64(n.Proto.EventsReceived)
		dups += float64(n.Proto.Duplicates)
		parasites += float64(n.Proto.Parasites)
	}
	c := map[string]float64{
		"mac.frames_sent":      sent,
		"mac.frames_received":  recv,
		"mac.frames_lost":      lost,
		"mac.defers":           defers,
		"mac.loss_ratio":       ratioOf(lost, recv+lost),
		"core.msgs_sent":       msgs,
		"core.duplicate_ratio": ratioOf(dups, evRecv),
		"core.parasite_ratio":  ratioOf(parasites, evRecv),
		"netsim.tiles":         1,
	}
	if ts := res.Tile; ts != nil {
		c["netsim.tiles"] = float64(ts.Tiles)
		c["netsim.tile_windows"] = float64(ts.Windows)
		c["netsim.tile_crossings"] = float64(ts.Crossings)
		c["netsim.tile_fanned_frames"] = float64(ts.FannedFrames)
		c["netsim.tile_serial_frames"] = float64(ts.SerialFrames)
	}
	return c
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runSimTraced runs an untraced and a traced sample of one scenario
// seed in fresh processes. Both fingerprints must equal the recorded
// one; the difference between them is the tracing overhead.
func runSimTraced(w simWorkload, seed int64, o outcome) outcome {
	sc := scenarioSeed(w, seed, 0)
	plain, err := spawn("sample", w, sc)
	o.attempted++ // each child also runs a set-up probe
	okPlain := check(&o, w, plain, err)
	traced, err := spawn("trace", w, sc)
	o.attempted++
	if !check(&o, w, traced, err) || !okPlain {
		return o
	}
	for k, v := range traced.Counters {
		o.values[k] = v
	}
	o.values["trace.wall_s"] = traced.WallS
	o.values["trace.overhead_wall_s"] = traced.WallS - plain.WallS
	o.values["trace.overhead_cpu_s"] = traced.CPUS - plain.CPUS
	// Untiled, handler spans never overlap, so core self time plus the
	// MAC enqueue must fit inside the traced wall time: a negative
	// substrate would mean a nested span was counted twice.
	if traced.Tiles == 1 && traced.Counters["netsim.substrate_s"] < 0 {
		o.fail("%s: span self times exceed the traced wall time (substrate %.3fs)",
			w.name, traced.Counters["netsim.substrate_s"])
	}
	printJSON(struct {
		Workload     string                `json:"workload"`
		ScenarioSeed int64                 `json:"scenario_seed"`
		Tiles        int                   `json:"tiles"`
		UntracedS    float64               `json:"untraced_wall_s"`
		TracedS      float64               `json:"traced_wall_s"`
		Spans        map[string]aggSummary `json:"spans"`
	}{w.name, sc, traced.Tiles, plain.WallS, traced.WallS, traced.Spans})
	return o
}
