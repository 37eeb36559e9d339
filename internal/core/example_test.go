package core_test

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
)

// exampleSched adapts the simulation engine to proto.Scheduler.
type exampleSched struct{ eng *sim.Engine }

func (s exampleSched) Now() time.Duration { return s.eng.Now().Duration() }
func (s exampleSched) After(d time.Duration, fn func()) proto.Timer {
	return s.eng.After(d, fn)
}

// examplePipe delivers broadcasts from one protocol straight into
// another — the smallest possible two-node "network".
type examplePipe struct {
	eng  *sim.Engine
	peer **core.Protocol
}

func (p examplePipe) Broadcast(m event.Message) {
	peer := p.peer
	p.eng.After(time.Millisecond, func() { _ = (*peer).HandleMessage(m) })
}

// Example wires two protocol instances together directly: the publisher
// detects the subscriber through heartbeats, learns what it misses via
// the id exchange, and pushes the event after its back-off.
func Example() {
	eng := sim.New(1)
	news := topic.MustParse(".campus.news")

	var alice, bob *core.Protocol
	mk := func(id event.NodeID, peer **core.Protocol, deliver func(event.Event)) *core.Protocol {
		p, err := core.New(core.Config{
			ID:           id,
			HBDelay:      time.Second,
			HBUpperBound: time.Second,
			OnDeliver:    deliver,
		}, exampleSched{eng}, examplePipe{eng: eng, peer: peer})
		if err != nil {
			panic(err)
		}
		return p
	}
	alice = mk(1, &bob, nil)
	bob = mk(2, &alice, func(ev event.Event) {
		fmt.Printf("bob received: %s\n", ev.Payload)
	})

	if err := alice.Subscribe(news); err != nil {
		panic(err)
	}
	if err := bob.Subscribe(news); err != nil {
		panic(err)
	}
	if _, err := alice.Publish(news, []byte("reading group at 5pm"), time.Minute); err != nil {
		panic(err)
	}

	eng.RunUntil(sim.Seconds(10))
	fmt.Printf("bob knows %d event(s)\n", bob.Stats().Delivered)
	// Output:
	// bob received: reading group at 5pm
	// bob knows 1 event(s)
}
