package flood

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
)

// stormHarness wires Storm nodes to the shared test bus.
type stormHarness struct {
	t      *testing.T
	eng    *sim.Engine
	ids    []event.NodeID
	protos map[event.NodeID]*Storm
	deliv  map[event.NodeID][]event.Event
}

func newStormHarness(t *testing.T, seed int64) *stormHarness {
	return &stormHarness{
		t:      t,
		eng:    sim.New(seed),
		protos: make(map[event.NodeID]*Storm),
		deliv:  make(map[event.NodeID][]event.Event),
	}
}

type stormBus struct {
	h    *stormHarness
	from event.NodeID
}

func (b stormBus) Broadcast(m event.Message) {
	for _, id := range b.h.ids {
		if id == b.from {
			continue
		}
		p := b.h.protos[id]
		b.h.eng.After(time.Millisecond, func() { _ = p.HandleMessage(m) })
	}
}

func (h *stormHarness) addNode(id event.NodeID, cfg StormConfig, subs ...string) *Storm {
	h.t.Helper()
	cfg.ID = id
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(int64(id) + 500))
	}
	cfg.OnDeliver = func(ev event.Event) {
		h.deliv[id] = append(h.deliv[id], ev)
	}
	p, err := NewStorm(cfg, simSched{h.eng}, stormBus{h: h, from: id})
	if err != nil {
		h.t.Fatal(err)
	}
	h.protos[id] = p
	h.ids = append(h.ids, id)
	for _, s := range subs {
		if err := p.Subscribe(topic.MustParse(s)); err != nil {
			h.t.Fatal(err)
		}
	}
	return p
}

func TestStormSchemeString(t *testing.T) {
	if Probabilistic.String() != "probabilistic-broadcast" ||
		CounterBased.String() != "counter-based-broadcast" {
		t.Fatal("scheme names wrong")
	}
	if StormScheme(7).String() != "storm(7)" {
		t.Fatal("unknown scheme format")
	}
}

func TestStormConfigValidate(t *testing.T) {
	if err := (StormConfig{Scheme: StormScheme(9)}).Validate(); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := (StormConfig{P: 1.5}).Validate(); err == nil {
		t.Fatal("bad probability accepted")
	}
	if err := (StormConfig{CounterThreshold: -1}).Validate(); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := NewStorm(StormConfig{}, nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
}

func TestStormProbabilisticDelivers(t *testing.T) {
	h := newStormHarness(t, 1)
	p1 := h.addNode(1, StormConfig{Scheme: Probabilistic, P: 1.0}, ".t")
	h.addNode(2, StormConfig{Scheme: Probabilistic, P: 1.0}, ".t")
	h.addNode(3, StormConfig{Scheme: Probabilistic, P: 1.0}, ".t")
	id, err := p1.Publish(topic.MustParse(".t"), []byte("x"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(5))
	for _, n := range []event.NodeID{2, 3} {
		if len(h.deliv[n]) != 1 || h.deliv[n][0].ID != id {
			t.Fatalf("node %v deliveries = %v", n, h.deliv[n])
		}
	}
}

func TestStormProbabilisticZeroNeverRelays(t *testing.T) {
	h := newStormHarness(t, 2)
	p1 := h.addNode(1, StormConfig{Scheme: Probabilistic, P: 1}, ".t")
	p2 := h.addNode(2, StormConfig{Scheme: Probabilistic, P: 1e-12}, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(5))
	if p2.Stats().EventsSent != 0 {
		t.Fatal("p~0 node relayed")
	}
	// It still delivers (reception is unconditional).
	if len(h.deliv[2]) != 1 {
		t.Fatal("non-relaying node should still deliver")
	}
}

func TestStormSingleShot(t *testing.T) {
	// Unlike periodic flooding, each node transmits each event at most
	// once — the defining property of the storm schemes.
	h := newStormHarness(t, 3)
	ps := make([]*Storm, 4)
	for i := range ps {
		ps[i] = h.addNode(event.NodeID(i+1), StormConfig{Scheme: Probabilistic, P: 1}, ".t")
	}
	if _, err := ps[0].Publish(topic.MustParse(".t"), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(30))
	for i, p := range ps {
		if got := p.Stats().EventsSent; got > 1 {
			t.Fatalf("node %d sent %d copies, want <= 1 (single shot)", i+1, got)
		}
	}
}

func TestStormCounterSuppression(t *testing.T) {
	// On a fully connected bus every node hears every relay. With
	// threshold 2 and several nodes, at least some relays must be
	// suppressed — the storm remedy at work.
	h := newStormHarness(t, 4)
	const n = 8
	ps := make([]*Storm, n)
	for i := range ps {
		ps[i] = h.addNode(event.NodeID(i+1), StormConfig{
			Scheme:           CounterBased,
			CounterThreshold: 2,
			AssessmentDelay:  300 * time.Millisecond,
		}, ".t")
	}
	if _, err := ps[0].Publish(topic.MustParse(".t"), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(10))
	relays := uint64(0)
	for _, p := range ps[1:] {
		relays += p.Stats().EventsSent
	}
	if relays >= n-1 {
		t.Fatalf("all %d receivers relayed; counter suppression inert", relays)
	}
	// Everyone still delivered.
	for i := 1; i < n; i++ {
		if len(h.deliv[event.NodeID(i+1)]) != 1 {
			t.Fatalf("node %d deliveries = %d", i+1, len(h.deliv[event.NodeID(i+1)]))
		}
	}
}

func TestStormRelaysParasitesButDoesNotDeliver(t *testing.T) {
	// Storm schemes are network-layer broadcasts: uninterested nodes
	// relay but never deliver.
	h := newStormHarness(t, 5)
	p1 := h.addNode(1, StormConfig{Scheme: Probabilistic, P: 1}, ".t")
	p2 := h.addNode(2, StormConfig{Scheme: Probabilistic, P: 1}, ".other")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(5))
	if len(h.deliv[2]) != 0 {
		t.Fatal("parasite delivered")
	}
	st := p2.Stats()
	if st.Parasites == 0 {
		t.Fatal("parasite not counted")
	}
	if st.EventsSent != 1 {
		t.Fatalf("uninterested node sent %d, want 1 (relays regardless)", st.EventsSent)
	}
}

func TestStormExpiredPruned(t *testing.T) {
	h := newStormHarness(t, 6)
	p1 := h.addNode(1, StormConfig{Scheme: Probabilistic, P: 1}, ".t")
	p2 := h.addNode(2, StormConfig{Scheme: Probabilistic, P: 1}, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(5))
	// Trigger a prune via another event.
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(sim.Seconds(8))
	if got := len(p2.sortedStormIDs()); got != 1 {
		t.Fatalf("store holds %d events, want 1 (expired pruned)", got)
	}
}

func TestStormPublishValidation(t *testing.T) {
	h := newStormHarness(t, 7)
	p := h.addNode(1, StormConfig{Scheme: Probabilistic}, ".t")
	if _, err := p.Publish(topic.Topic{}, nil, time.Minute); err == nil {
		t.Fatal("zero topic accepted")
	}
	if _, err := p.Publish(topic.MustParse(".t"), nil, 0); err == nil {
		t.Fatal("zero validity accepted")
	}
	p.Stop()
	if _, err := p.Publish(topic.MustParse(".t"), nil, time.Minute); err == nil {
		t.Fatal("publish after stop accepted")
	}
	if err := p.Subscribe(topic.MustParse(".x")); err == nil {
		t.Fatal("subscribe after stop accepted")
	}
}

func TestStormDeterminism(t *testing.T) {
	run := func() []proto.Stats {
		h := newStormHarness(t, 42)
		ps := make([]*Storm, 5)
		for i := range ps {
			ps[i] = h.addNode(event.NodeID(i+1), StormConfig{Scheme: CounterBased}, ".t")
		}
		if _, err := ps[0].Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
			t.Fatal(err)
		}
		h.eng.RunUntil(sim.Seconds(70))
		out := make([]proto.Stats, len(ps))
		for i, p := range ps {
			out[i] = p.Stats()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("storm nondeterministic at node %d", i+1)
		}
	}
}
