// Package flood implements the three flooding baselines the paper
// compares against in Section 5.2 ("Frugality"):
//
//   - Simple flooding: every second, a process rebroadcasts every
//     still-valid event it holds, irrespective of anyone's interests.
//   - Interests-aware flooding: a process stores and rebroadcasts only the
//     events it has itself subscribed to.
//   - Neighbors'-interests flooding: a process rebroadcasts an event only
//     if it is interested AND it knows (from heartbeats) a neighbor that
//     is; one addressed copy per interested neighbor is transmitted,
//     emulating the MAC-level unicasts such schemes use. This is why the
//     paper reports it consuming over 1 MB per process.
//
// All three share the core package's Scheduler/Transport interfaces and
// stats, so the experiment harness treats them interchangeably with the
// frugal protocol.
package flood

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/topic"
)

// Variant selects the flooding baseline.
type Variant int

const (
	// Simple is approach (1): flood everything, every second.
	Simple Variant = iota
	// InterestAware is approach (2): flood only subscribed events.
	InterestAware
	// NeighborsInterest is approach (3): flood subscribed events only
	// toward interested neighbors (one copy per neighbor).
	NeighborsInterest
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Simple:
		return "simple-flooding"
	case InterestAware:
		return "interests-aware-flooding"
	case NeighborsInterest:
		return "neighbors-interests-flooding"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Config parameterizes a flooding node.
type Config struct {
	// ID is the process identifier. Required.
	ID event.NodeID
	// Variant selects the baseline behavior.
	Variant Variant
	// Period is the rebroadcast interval (paper: one second).
	Period time.Duration
	// HBDelay is the heartbeat period for NeighborsInterest (defaults
	// to Period); the other variants send no heartbeats.
	HBDelay time.Duration
	// NeighborTTL expires neighbor-table rows for NeighborsInterest
	// (defaults to 2.5 x HBDelay, mirroring the frugal protocol).
	NeighborTTL time.Duration
	// OnDeliver is invoked once per delivered event. Optional.
	OnDeliver func(event.Event)
	// Rand seeds id generation and tick phase; when nil, derived from ID.
	Rand *rand.Rand
}

func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = time.Second
	}
	if c.HBDelay == 0 {
		c.HBDelay = c.Period
	}
	if c.NeighborTTL == 0 {
		c.NeighborTTL = time.Duration(2.5 * float64(c.HBDelay))
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(int64(c.ID) + 1))
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Variant < Simple || c.Variant > NeighborsInterest {
		return fmt.Errorf("flood: unknown variant %d", c.Variant)
	}
	if c.Period < 0 || c.HBDelay < 0 || c.NeighborTTL < 0 {
		return errors.New("flood: negative period")
	}
	return nil
}

type storedEvent struct {
	ev        event.Event
	expiresAt time.Duration
}

type floodNeighbor struct {
	subs     *topic.Set
	storedAt time.Duration
}

// Protocol is one flooding process. Like core.Protocol it is
// single-threaded: all entry points must be called serially.
type Protocol struct {
	cfg   Config
	sched proto.Scheduler
	tr    proto.Transport

	subs  *topic.Set
	store map[event.ID]*storedEvent
	nbrs  map[event.NodeID]*floodNeighbor

	tickTimer proto.Timer
	hbTimer   proto.Timer
	stats     proto.Stats
	stopped   bool
}

// New creates a flooding node; the periodic flood task starts on the
// first Subscribe or Publish.
func New(cfg Config, sched proto.Scheduler, tr proto.Transport) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil || tr == nil {
		return nil, errors.New("flood: nil scheduler or transport")
	}
	return &Protocol{
		cfg:   cfg.withDefaults(),
		sched: sched,
		tr:    tr,
		subs:  topic.NewSet(),
		store: make(map[event.ID]*storedEvent),
		nbrs:  make(map[event.NodeID]*floodNeighbor),
	}, nil
}

// ID returns the process identifier.
func (p *Protocol) ID() event.NodeID { return p.cfg.ID }

// Stats returns a snapshot of the counters.
func (p *Protocol) Stats() proto.Stats { return p.stats }

// HasEvent reports whether the store holds id.
func (p *Protocol) HasEvent(id event.ID) bool {
	_, ok := p.store[id]
	return ok
}

// Subscribe registers interest in topic t and all its subtopics.
func (p *Protocol) Subscribe(t topic.Topic) error {
	if p.stopped {
		return errors.New("flood: protocol stopped")
	}
	if t.IsZero() {
		return errors.New("flood: zero topic")
	}
	p.subs.Add(t)
	p.start()
	return nil
}

// Unsubscribe removes t from the subscription set.
func (p *Protocol) Unsubscribe(t topic.Topic) { p.subs.Remove(t) }

// Stop halts all activity permanently.
func (p *Protocol) Stop() {
	p.stopped = true
	if p.tickTimer != nil {
		p.tickTimer.Stop()
		p.tickTimer = nil
	}
	if p.hbTimer != nil {
		p.hbTimer.Stop()
		p.hbTimer = nil
	}
}

// start launches the periodic tasks with a random initial phase so that
// co-started nodes do not flood in lockstep.
func (p *Protocol) start() {
	if p.tickTimer == nil {
		phase := time.Duration(p.cfg.Rand.Int63n(int64(p.cfg.Period) + 1))
		p.tickTimer = p.sched.After(phase, p.tick)
	}
	if p.cfg.Variant == NeighborsInterest && p.hbTimer == nil {
		phase := time.Duration(p.cfg.Rand.Int63n(int64(p.cfg.HBDelay) + 1))
		p.hbTimer = p.sched.After(phase, p.heartbeatTick)
	}
}

// Publish floods a new event.
func (p *Protocol) Publish(t topic.Topic, payload []byte, validity time.Duration) (event.ID, error) {
	if p.stopped {
		return event.ID{}, errors.New("flood: protocol stopped")
	}
	if t.IsZero() {
		return event.ID{}, errors.New("flood: zero topic")
	}
	if validity <= 0 {
		return event.ID{}, fmt.Errorf("flood: non-positive validity %v", validity)
	}
	now := p.sched.Now()
	ev := event.Event{
		ID:        event.NewID(p.cfg.Rand),
		Topic:     t,
		Publisher: p.cfg.ID,
		Payload:   append([]byte(nil), payload...),
		Validity:  validity,
		Remaining: validity,
	}
	p.store[ev.ID] = &storedEvent{ev: ev, expiresAt: now + validity}
	p.stats.Published++
	if p.subs.Covers(t) {
		p.deliver(ev)
	}
	p.start()
	return ev.ID, nil
}

func (p *Protocol) deliver(ev event.Event) {
	p.stats.Delivered++
	if p.cfg.OnDeliver != nil {
		p.cfg.OnDeliver(ev)
	}
}

// HandleMessage feeds a received broadcast into the protocol.
func (p *Protocol) HandleMessage(m event.Message) error {
	if p.stopped {
		return nil
	}
	switch v := m.(type) {
	case event.Heartbeat:
		p.onHeartbeat(v)
	case event.Events:
		p.onEvents(v)
	case event.IDList:
		// Flooding variants do not exchange id lists; ignore quietly so
		// mixed scenarios are possible.
	default:
		return fmt.Errorf("flood: unknown message %T", m)
	}
	return nil
}

func (p *Protocol) onHeartbeat(h event.Heartbeat) {
	if p.cfg.Variant != NeighborsInterest || h.From == p.cfg.ID {
		return
	}
	p.nbrs[h.From] = &floodNeighbor{
		subs:     topic.NewSet(h.Subscriptions...),
		storedAt: p.sched.Now(),
	}
}

func (p *Protocol) onEvents(msg event.Events) {
	if msg.From == p.cfg.ID {
		return
	}
	now := p.sched.Now()
	for _, ev := range msg.Events {
		p.stats.EventsReceived++
		covered := p.subs.Covers(ev.Topic)
		if !covered {
			p.stats.Parasites++
			if p.cfg.Variant != Simple {
				continue // interest-filtered variants drop parasites
			}
		}
		if _, ok := p.store[ev.ID]; ok {
			p.stats.Duplicates++
			continue
		}
		if ev.Remaining <= 0 {
			p.stats.ExpiredDrops++
			continue
		}
		p.store[ev.ID] = &storedEvent{ev: ev, expiresAt: now + ev.Remaining}
		if covered {
			p.deliver(ev)
		}
	}
}

// tick is the 1-second flood task.
func (p *Protocol) tick() {
	if p.stopped {
		p.tickTimer = nil
		return
	}
	now := p.sched.Now()
	p.pruneExpired(now)
	if p.cfg.Variant == NeighborsInterest {
		p.pruneNeighbors(now)
	}
	entries := p.validSorted(now)
	switch p.cfg.Variant {
	case Simple, InterestAware:
		// InterestAware stores only subscribed events, so flooding the
		// whole store implements its rule.
		p.broadcastBatch(entries, now, nil)
	case NeighborsInterest:
		p.floodPerNeighbor(entries, now)
	}
	p.tickTimer = p.sched.After(p.cfg.Period, p.tick)
}

func (p *Protocol) broadcastBatch(entries []*storedEvent, now time.Duration, receivers []event.NodeID) {
	if len(entries) == 0 {
		return
	}
	events := make([]event.Event, len(entries))
	for i, se := range entries {
		events[i] = se.ev.WithRemaining(se.expiresAt - now)
	}
	p.tr.Broadcast(event.Events{From: p.cfg.ID, Events: events, Receivers: receivers})
	p.stats.EventMsgsSent++
	p.stats.EventsSent += uint64(len(events))
}

// floodPerNeighbor emulates approach (3): for each interested neighbor,
// transmit one addressed copy of each event of interest to it.
func (p *Protocol) floodPerNeighbor(entries []*storedEvent, now time.Duration) {
	ids := make([]event.NodeID, 0, len(p.nbrs))
	for id := range p.nbrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		nb := p.nbrs[id]
		var batch []*storedEvent
		for _, se := range entries {
			if p.subs.Covers(se.ev.Topic) && nb.subs.Covers(se.ev.Topic) {
				batch = append(batch, se)
			}
		}
		p.broadcastBatch(batch, now, []event.NodeID{id})
	}
}

func (p *Protocol) heartbeatTick() {
	if p.stopped {
		p.hbTimer = nil
		return
	}
	p.tr.Broadcast(event.Heartbeat{
		From:          p.cfg.ID,
		Subscriptions: p.subs.Topics(),
		Speed:         -1,
	})
	p.stats.HeartbeatsSent++
	p.hbTimer = p.sched.After(p.cfg.HBDelay, p.heartbeatTick)
}

func (p *Protocol) pruneExpired(now time.Duration) {
	for id, se := range p.store {
		if now >= se.expiresAt {
			delete(p.store, id)
		}
	}
}

func (p *Protocol) pruneNeighbors(now time.Duration) {
	for id, nb := range p.nbrs {
		if now-nb.storedAt > p.cfg.NeighborTTL {
			delete(p.nbrs, id)
		}
	}
}

// validSorted returns still-valid stored events ordered by id.
func (p *Protocol) validSorted(now time.Duration) []*storedEvent {
	out := make([]*storedEvent, 0, len(p.store))
	for _, se := range p.store {
		if now < se.expiresAt {
			out = append(out, se)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ev.ID.Less(out[j].ev.ID) })
	return out
}
