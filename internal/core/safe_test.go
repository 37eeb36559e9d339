package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/topic"
)

// wallScheduler is a real-time Scheduler for exercising Safe off the
// simulator.
type wallScheduler struct {
	start time.Time
}

func (w *wallScheduler) Now() time.Duration { return time.Since(w.start) }

func (w *wallScheduler) After(d time.Duration, fn func()) proto.Timer {
	return wallTimer{t: time.AfterFunc(d, fn)}
}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Stop() bool { return w.t.Stop() }

// chanTransport collects broadcasts on a channel.
type chanTransport struct {
	ch chan event.Message
}

func (c chanTransport) Broadcast(m event.Message) {
	select {
	case c.ch <- m:
	default:
	}
}

func TestSafeConcurrentUse(t *testing.T) {
	sched := &wallScheduler{start: time.Now()}
	tr := chanTransport{ch: make(chan event.Message, 1024)}
	s, err := NewSafe(Config{ID: 1, HBDelay: 5 * time.Millisecond, HBUpperBound: 5 * time.Millisecond}, sched, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Subscribe(topic.MustParse(".t")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Publisher goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := s.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
				t.Errorf("Publish: %v", err)
				return
			}
		}
	}()
	// Incoming-message goroutine simulating a remote peer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.HandleMessage(event.Heartbeat{
				From:          2,
				Subscriptions: []topic.Topic{topic.MustParse(".t")},
				Speed:         -1,
			})
			_ = s.HandleMessage(event.IDList{From: 2})
		}
	}()
	// Reader goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Stats()
			s.NeighborIDs()
		}
	}()
	wg.Wait()

	// Let a few heartbeat timers fire under the lock.
	time.Sleep(30 * time.Millisecond)
	st := s.Stats()
	if st.Published != 50 {
		t.Fatalf("published = %d, want 50", st.Published)
	}
	if ids := s.NeighborIDs(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("neighbors = %v", ids)
	}
}

func TestSafeDelegation(t *testing.T) {
	sched := &wallScheduler{start: time.Now()}
	tr := chanTransport{ch: make(chan event.Message, 16)}
	s, err := NewSafe(Config{ID: 7}, sched, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	id, err := s.Publish(topic.MustParse(".a"), []byte("x"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasEvent(id) {
		t.Fatal("HasEvent false after Publish")
	}
	s.Unsubscribe(topic.MustParse(".a")) // no-op, must not panic
}
