// Inprocess runs the frugal protocol on REAL time, off the simulator:
// three "devices" live on goroutines, connected by an in-process
// broadcast bus, each wrapped in core.Safe for thread safety. This is the
// deployment shape for a real transport (UDP broadcast, BLE advertising):
// implement proto.Scheduler with the wall clock and proto.Transport with
// your radio, and the protocol code is unchanged.
//
// Run with: go run ./examples/inprocess
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/topic"
)

// wallClock implements proto.Scheduler on real time.
type wallClock struct{ start time.Time }

func (w wallClock) Now() time.Duration { return time.Since(w.start) }
func (w wallClock) After(d time.Duration, fn func()) proto.Timer {
	return wallTimer{time.AfterFunc(d, fn)}
}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Stop() bool { return w.t.Stop() }

// bus is an in-process lossless broadcast medium. A real deployment
// would marshal with event.Marshal and send UDP broadcast datagrams.
type bus struct {
	mu    sync.RWMutex
	peers map[event.NodeID]*core.Safe
}

func (b *bus) attach(id event.NodeID, p *core.Safe) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.peers == nil {
		b.peers = make(map[event.NodeID]*core.Safe)
	}
	b.peers[id] = p
}

// transport broadcasts on behalf of one device.
type transport struct {
	b    *bus
	from event.NodeID
}

func (t transport) Broadcast(m event.Message) {
	// Round-trip through the real wire encoding to prove it works.
	wire := event.Marshal(m)
	decoded, err := event.Unmarshal(wire)
	if err != nil {
		log.Fatalf("wire format round-trip failed: %v", err)
	}
	t.b.mu.RLock()
	defer t.b.mu.RUnlock()
	for id, p := range t.b.peers {
		if id == t.from {
			continue
		}
		p := p
		go func() { _ = p.HandleMessage(decoded) }()
	}
}

func main() {
	clock := wallClock{start: time.Now()}
	b := &bus{}
	news := topic.MustParse(".campus.news")

	var wg sync.WaitGroup
	devices := make([]*core.Safe, 3)
	for i := range devices {
		id := event.NodeID(i)
		p, err := core.NewSafe(core.Config{
			ID: id,
			// Fast heartbeats so the demo converges in ~2 wall seconds.
			HBDelay:      150 * time.Millisecond,
			HBUpperBound: 150 * time.Millisecond,
			OnDeliver: func(ev event.Event) {
				fmt.Printf("%6s device %v delivered: %s\n",
					clock.Now().Round(time.Millisecond), id, ev.Payload)
				wg.Done()
			},
		}, clock, transport{b: b, from: id})
		if err != nil {
			log.Fatal(err)
		}
		devices[i] = p
		b.attach(id, p)
		if err := p.Subscribe(news); err != nil {
			log.Fatal(err)
		}
	}
	defer func() {
		for _, d := range devices {
			d.Stop()
		}
	}()

	// Let the devices discover each other over a few heartbeats.
	time.Sleep(500 * time.Millisecond)
	for i, d := range devices {
		fmt.Printf("device %d neighbors: %v\n", i, d.NeighborIDs())
	}

	// Three deliveries expected: the publisher self-delivers (it is
	// subscribed) plus the two remote devices.
	wg.Add(3)
	fmt.Printf("%6s device 0 publishing\n", clock.Now().Round(time.Millisecond))
	if _, err := devices[0].Publish(news, []byte("lecture moved to room BC410"), time.Minute); err != nil {
		log.Fatal(err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		fmt.Println("all devices received the event over the real-time transport")
	case <-time.After(5 * time.Second):
		log.Fatal("timed out waiting for deliveries")
	}
}
