package core

import (
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/topic"
)

// Safe wraps a Protocol for concurrent use: every entry point — including
// the timer callbacks the protocol schedules for itself — runs under one
// mutex, satisfying the single-threaded contract on a real transport
// where the network, timers and application live on different goroutines.
//
// Caveats: Config.OnDeliver is invoked with the lock held, so it must not
// call back into the protocol; hand off to a channel instead.
type Safe struct {
	mu sync.Mutex
	p  *Protocol
}

// NewSafe builds a mutex-guarded protocol on the given scheduler and
// transport. The scheduler's callbacks are automatically serialized; the
// transport may deliver from any goroutine via HandleMessage.
func NewSafe(cfg Config, sched proto.Scheduler, tr proto.Transport) (*Safe, error) {
	s := &Safe{}
	p, err := New(cfg, &lockedScheduler{mu: &s.mu, inner: sched}, tr)
	if err != nil {
		return nil, err
	}
	s.p = p
	return s, nil
}

// lockedScheduler wraps scheduled callbacks with the Safe mutex.
type lockedScheduler struct {
	mu    *sync.Mutex
	inner proto.Scheduler
}

func (l *lockedScheduler) Now() time.Duration { return l.inner.Now() }

func (l *lockedScheduler) After(d time.Duration, fn func()) proto.Timer {
	return l.inner.After(d, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		fn()
	})
}

// Subscribe is a thread-safe Protocol.Subscribe.
func (s *Safe) Subscribe(t topic.Topic) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Subscribe(t)
}

// Unsubscribe is a thread-safe Protocol.Unsubscribe.
func (s *Safe) Unsubscribe(t topic.Topic) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.Unsubscribe(t)
}

// Publish is a thread-safe Protocol.Publish.
func (s *Safe) Publish(t topic.Topic, payload []byte, validity time.Duration) (event.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Publish(t, payload, validity)
}

// HandleMessage is a thread-safe Protocol.HandleMessage.
func (s *Safe) HandleMessage(m event.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.HandleMessage(m)
}

// Stats is a thread-safe Protocol.Stats.
func (s *Safe) Stats() proto.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Stats()
}

// Stop is a thread-safe Protocol.Stop.
func (s *Safe) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.Stop()
}

// NeighborIDs is a thread-safe Protocol.NeighborIDs.
func (s *Safe) NeighborIDs() []event.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.NeighborIDs()
}

// HasEvent is a thread-safe Protocol.HasEvent.
func (s *Safe) HasEvent(id event.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.HasEvent(id)
}
