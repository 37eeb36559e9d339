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

// The paper's related work (Section 6) discusses the broadcast storm
// problem (Ni et al.) and its classic remedies: the probabilistic and
// counter-based schemes. Storm implements both as additional baselines.
// Unlike the three periodic flooding variants, these are single-shot:
// a node rebroadcasts a newly received event at most once — with
// probability P (probabilistic) or only if it heard fewer than
// CounterThreshold copies during a random assessment delay
// (counter-based). They tame redundancy in dense networks but cannot
// exploit node mobility or event validity: once the broadcast wave dies,
// partitioned nodes are never reached — precisely the gap the frugal
// protocol fills.

// StormScheme selects the rebroadcast decision rule.
type StormScheme int

const (
	// Probabilistic rebroadcasts each new event with probability P.
	Probabilistic StormScheme = iota
	// CounterBased rebroadcasts unless CounterThreshold copies were
	// overheard during the assessment delay.
	CounterBased
)

// String implements fmt.Stringer.
func (s StormScheme) String() string {
	switch s {
	case Probabilistic:
		return "probabilistic-broadcast"
	case CounterBased:
		return "counter-based-broadcast"
	default:
		return fmt.Sprintf("storm(%d)", int(s))
	}
}

// StormConfig parameterizes a Storm node.
type StormConfig struct {
	// ID is the process identifier. Required.
	ID event.NodeID
	// Scheme selects probabilistic or counter-based.
	Scheme StormScheme
	// P is the probabilistic rebroadcast probability (default 0.6, a
	// standard choice in the literature).
	P float64
	// CounterThreshold is the counter-based cutoff C (default 3).
	CounterThreshold int
	// AssessmentDelay bounds the random delay before the rebroadcast
	// decision (default 500 ms).
	AssessmentDelay time.Duration
	// OnDeliver is invoked once per delivered event. Optional.
	OnDeliver func(event.Event)
	// Rand drives ids, delays and coin flips; derived from ID when nil.
	Rand *rand.Rand
}

func (c StormConfig) withDefaults() StormConfig {
	if c.P == 0 {
		c.P = 0.6
	}
	if c.CounterThreshold == 0 {
		c.CounterThreshold = 3
	}
	if c.AssessmentDelay == 0 {
		c.AssessmentDelay = 500 * time.Millisecond
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(int64(c.ID) + 1))
	}
	return c
}

// Validate reports configuration errors.
func (c StormConfig) Validate() error {
	if c.Scheme < Probabilistic || c.Scheme > CounterBased {
		return fmt.Errorf("flood: unknown storm scheme %d", c.Scheme)
	}
	if c.P < 0 || c.P > 1 {
		return fmt.Errorf("flood: storm probability %v out of [0,1]", c.P)
	}
	if c.CounterThreshold < 0 || c.AssessmentDelay < 0 {
		return errors.New("flood: negative storm parameter")
	}
	return nil
}

// stormEvent tracks one event's local rebroadcast state.
type stormEvent struct {
	ev        event.Event
	expiresAt time.Duration
	copies    int  // copies heard (counter-based)
	decided   bool // rebroadcast decision already taken
}

// Storm is one process running a broadcast-storm countermeasure scheme.
// Single-threaded, like the other protocols.
type Storm struct {
	cfg   StormConfig
	sched proto.Scheduler
	tr    proto.Transport

	subs  *topic.Set
	store map[event.ID]*stormEvent

	stats   proto.Stats
	stopped bool
}

// NewStorm creates a probabilistic or counter-based broadcast node.
func NewStorm(cfg StormConfig, sched proto.Scheduler, tr proto.Transport) (*Storm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil || tr == nil {
		return nil, errors.New("flood: nil scheduler or transport")
	}
	return &Storm{
		cfg:   cfg.withDefaults(),
		sched: sched,
		tr:    tr,
		subs:  topic.NewSet(),
		store: make(map[event.ID]*stormEvent),
	}, nil
}

// ID returns the process identifier.
func (s *Storm) ID() event.NodeID { return s.cfg.ID }

// Stats returns a snapshot of the counters.
func (s *Storm) Stats() proto.Stats { return s.stats }

// HasEvent reports whether the store holds id.
func (s *Storm) HasEvent(id event.ID) bool {
	_, ok := s.store[id]
	return ok
}

// Subscribe registers interest in t and its subtopics.
func (s *Storm) Subscribe(t topic.Topic) error {
	if s.stopped {
		return errors.New("flood: protocol stopped")
	}
	if t.IsZero() {
		return errors.New("flood: zero topic")
	}
	s.subs.Add(t)
	return nil
}

// Unsubscribe removes t.
func (s *Storm) Unsubscribe(t topic.Topic) { s.subs.Remove(t) }

// Stop halts all activity permanently.
func (s *Storm) Stop() { s.stopped = true }

// Publish broadcasts a new event immediately (the storm wave origin).
func (s *Storm) Publish(t topic.Topic, payload []byte, validity time.Duration) (event.ID, error) {
	if s.stopped {
		return event.ID{}, errors.New("flood: protocol stopped")
	}
	if t.IsZero() {
		return event.ID{}, errors.New("flood: zero topic")
	}
	if validity <= 0 {
		return event.ID{}, fmt.Errorf("flood: non-positive validity %v", validity)
	}
	now := s.sched.Now()
	ev := event.Event{
		ID:        event.NewID(s.cfg.Rand),
		Topic:     t,
		Publisher: s.cfg.ID,
		Payload:   append([]byte(nil), payload...),
		Validity:  validity,
		Remaining: validity,
	}
	s.store[ev.ID] = &stormEvent{ev: ev, expiresAt: now + validity, decided: true}
	s.stats.Published++
	s.broadcast(ev, now)
	if s.subs.Covers(t) {
		s.deliver(ev)
	}
	return ev.ID, nil
}

func (s *Storm) deliver(ev event.Event) {
	s.stats.Delivered++
	if s.cfg.OnDeliver != nil {
		s.cfg.OnDeliver(ev)
	}
}

func (s *Storm) broadcast(ev event.Event, now time.Duration) {
	se := s.store[ev.ID]
	s.tr.Broadcast(event.Events{
		From:   s.cfg.ID,
		Events: []event.Event{ev.WithRemaining(se.expiresAt - now)},
	})
	s.stats.EventMsgsSent++
	s.stats.EventsSent++
}

// HandleMessage feeds a received broadcast into the scheme.
func (s *Storm) HandleMessage(m event.Message) error {
	if s.stopped {
		return nil
	}
	switch v := m.(type) {
	case event.Events:
		s.onEvents(v)
	case event.Heartbeat, event.IDList:
		// Storm schemes use no control traffic; tolerate mixed setups.
	default:
		return fmt.Errorf("flood: unknown message %T", m)
	}
	return nil
}

func (s *Storm) onEvents(msg event.Events) {
	if msg.From == s.cfg.ID {
		return
	}
	now := s.sched.Now()
	for _, ev := range msg.Events {
		s.stats.EventsReceived++
		if !s.subs.Covers(ev.Topic) {
			s.stats.Parasites++
			// Storm schemes relay regardless of interest (they are
			// network-layer broadcasts), so fall through.
		}
		if se, ok := s.store[ev.ID]; ok {
			s.stats.Duplicates++
			se.copies++
			continue
		}
		if ev.Remaining <= 0 {
			s.stats.ExpiredDrops++
			continue
		}
		se := &stormEvent{ev: ev, expiresAt: now + ev.Remaining, copies: 1}
		s.store[ev.ID] = se
		if s.subs.Covers(ev.Topic) {
			s.deliver(ev)
		}
		s.scheduleDecision(se)
	}
	s.pruneExpired(now)
}

// scheduleDecision arms the single-shot rebroadcast decision.
func (s *Storm) scheduleDecision(se *stormEvent) {
	if s.cfg.Scheme == Probabilistic && s.cfg.Rand.Float64() >= s.cfg.P {
		se.decided = true // lost the coin flip: never rebroadcast
		return
	}
	delay := time.Duration(s.cfg.Rand.Int63n(int64(s.cfg.AssessmentDelay) + 1))
	s.sched.After(delay, func() {
		if s.stopped || se.decided {
			return
		}
		se.decided = true
		now := s.sched.Now()
		if now >= se.expiresAt {
			return
		}
		if s.cfg.Scheme == CounterBased && se.copies >= s.cfg.CounterThreshold {
			return // the neighborhood is saturated: suppress
		}
		s.broadcast(se.ev, now)
	})
}

func (s *Storm) pruneExpired(now time.Duration) {
	for id, se := range s.store {
		if now >= se.expiresAt && se.decided {
			delete(s.store, id)
		}
	}
}

// sortedStormIDs aids tests: stored ids in stable order.
func (s *Storm) sortedStormIDs() []event.ID {
	out := make([]event.ID, 0, len(s.store))
	for id := range s.store {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
