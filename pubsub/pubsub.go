// Package pubsub is the public face of the library: a single import for
// embedding the frugal MANET publish/subscribe protocol in an
// application.
//
// It re-exports the stable pieces of the internal packages — topics,
// events, the wire format, the protocol configuration — and wraps the
// protocol in a goroutine-safe Node with a ready-made wall-clock
// scheduler and UDP transport, so the minimal deployment is:
//
//	node, _ := pubsub.NewUDPNode(pubsub.Config{ID: 1},
//	    "0.0.0.0:7946", []string{
//	        "10.0.0.1:7946", // this node — filtered out automatically
//	        "10.0.0.2:7946", "10.0.0.3:7946"})
//	defer node.Close()
//	node.Subscribe(pubsub.MustParseTopic(".fleet.alerts"))
//	node.Publish(pubsub.MustParseTopic(".fleet.alerts.engine"),
//	    []byte("oil pressure low"), 2*time.Minute)
//
// The same roster file can be handed to every node: entries naming the
// local socket are filtered by (port, local interface-address set),
// which works under wildcard binds like the "0.0.0.0:7946" above — not
// only when the strings happen to match. For a deployment without a
// global roster at all, set UDPTuning.LearnPeers and Suspicion and pass
// only a few seed addresses (see NewUDPNodeTuned).
//
// For simulation and evaluation, use internal/netsim and cmd/experiments
// instead; this package is for running the protocol on real transports.
package pubsub

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/topic"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Re-exported core types. Aliases keep the public surface to one import
// without copying definitions.
type (
	// Topic is a node in the dot-separated topic hierarchy.
	Topic = topic.Topic
	// Event is a published unit of information with a validity period.
	Event = event.Event
	// EventID is a 128-bit globally unique event identifier.
	EventID = event.ID
	// NodeID identifies a process.
	NodeID = event.NodeID
	// Message is a protocol wire message.
	Message = event.Message
	// Config parameterizes a protocol instance; zero tuning fields
	// select the paper's defaults.
	Config = core.Config
	// Scheduler abstracts time; implement it to control timers, or use
	// the built-in wall clock via NewNode.
	Scheduler = proto.Scheduler
	// Transport is the one-hop broadcast primitive.
	Transport = proto.Transport
	// Timer is a cancellable scheduled callback.
	Timer = proto.Timer
	// Stats are the protocol's cumulative counters.
	Stats = proto.Stats
	// TransportStats are the UDP transport's cumulative counters
	// (datagrams, decode errors, queue drops, flush batches).
	TransportStats = transport.Stats
)

// UDPTuning adjusts the asynchronous fast path of the built-in UDP
// transport. The zero value selects the defaults
// (transport.DefaultSendQueue / DefaultRecvQueue, immediate flush) —
// NewUDPNode uses exactly that.
type UDPTuning struct {
	// SendQueue bounds the outbound message ring; overflow drops the
	// oldest queued message (counted in TransportStats.Dropped).
	SendQueue int
	// RecvQueue bounds the inbound dispatch ring; overflow drops the
	// oldest queued datagram (counted in TransportStats.RecvDropped).
	RecvQueue int
	// FlushInterval makes the writer linger so nearby broadcasts
	// coalesce into one batch; 0 flushes as soon as the writer wakes.
	FlushInterval time.Duration
	// LearnPeers turns the peers list into join seeds: the roster grows
	// from observed datagram sources, so a joining node only needs one
	// reachable seed and the rest of the mesh learns it from its own
	// heartbeats.
	LearnPeers bool
	// Suspicion arms heartbeat-driven failure detection: a peer silent
	// for longer than this window is evicted from the broadcast roster
	// (counted in TransportStats.PeersEvicted). Size it to several
	// protocol heartbeat periods (Config.THeartbeat).
	Suspicion time.Duration
	// SuspicionSweep overrides the eviction check period (default
	// Suspicion/4).
	SuspicionSweep time.Duration
}

// ParseTopic converts a string such as ".a.b" (or "a.b") into a Topic.
func ParseTopic(s string) (Topic, error) { return topic.Parse(s) }

// MustParseTopic is ParseTopic that panics on error.
func MustParseTopic(s string) Topic { return topic.MustParse(s) }

// RootTopic returns ".", the ancestor of every topic.
func RootTopic() Topic { return topic.Root() }

// Marshal encodes a protocol message into its wire format.
func Marshal(m Message) []byte { return event.Marshal(m) }

// Unmarshal decodes a wire-format message.
func Unmarshal(b []byte) (Message, error) { return event.Unmarshal(b) }

// Node is a goroutine-safe protocol instance bound to a transport and
// the wall clock. Create one with NewNode (custom transport) or
// NewUDPNode (built-in UDP peer-group transport).
type Node struct {
	id    NodeID
	safe  *core.Safe
	udp   *transport.UDP // nil for custom transports
	clock *wallClock

	// flight, when armed by StartFlightRecorder, captures the node's
	// recent lifecycle events (see observe.go).
	flight atomic.Pointer[trace.Ring]
}

// wallClock implements Scheduler on real time.
type wallClock struct{ start time.Time }

func (w *wallClock) Now() time.Duration { return time.Since(w.start) }

func (w *wallClock) After(d time.Duration, fn func()) Timer {
	return wallTimer{time.AfterFunc(d, fn)}
}

type wallTimer struct{ t *time.Timer }

func (t wallTimer) Stop() bool { return t.t.Stop() }

// NewNode builds a node on a custom transport. Deliver incoming messages
// with Node.HandleMessage; they may arrive from any goroutine.
func NewNode(cfg Config, tr Transport) (*Node, error) {
	if tr == nil {
		return nil, errors.New("pubsub: nil transport")
	}
	n := &Node{id: cfg.ID, clock: &wallClock{start: time.Now()}}
	n.hookDeliveries(&cfg)
	safe, err := core.NewSafe(cfg, n.clock, flightTransport{n: n, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("pubsub: %w", err)
	}
	n.safe = safe
	return n, nil
}

// NewUDPNode builds a node with the built-in UDP peer-group transport:
// it binds listen and broadcasts to peers (the roster may include the
// local address; it is filtered out). The transport's read loop is
// started only after the protocol instance is wired, so no datagram can
// reach a half-constructed node.
func NewUDPNode(cfg Config, listen string, peers []string) (*Node, error) {
	return NewUDPNodeTuned(cfg, listen, peers, UDPTuning{})
}

// NewUDPNodeTuned is NewUDPNode with explicit transport tuning — queue
// bounds and flush batching for high-rate deployments (see cmd/loadgen
// for a soak harness built on it).
func NewUDPNodeTuned(cfg Config, listen string, peers []string, tun UDPTuning) (*Node, error) {
	n := &Node{id: cfg.ID, clock: &wallClock{start: time.Now()}}
	n.hookDeliveries(&cfg)
	udp, err := transport.NewUDP(transport.UDPConfig{
		Listen: listen,
		Peers:  peers,
		Handler: func(m Message) {
			n.recordReceive(m)
			_ = n.safe.HandleMessage(m)
		},
		SendQueue:      tun.SendQueue,
		RecvQueue:      tun.RecvQueue,
		FlushInterval:  tun.FlushInterval,
		LearnPeers:     tun.LearnPeers,
		Suspicion:      tun.Suspicion,
		SuspicionSweep: tun.SuspicionSweep,
	})
	if err != nil {
		return nil, fmt.Errorf("pubsub: %w", err)
	}
	safe, err := core.NewSafe(cfg, n.clock, flightTransport{n: n, tr: udp})
	if err != nil {
		udp.Close()
		return nil, fmt.Errorf("pubsub: %w", err)
	}
	n.safe = safe
	n.udp = udp
	udp.Start()
	return n, nil
}

// Subscribe registers interest in t and its whole subtree.
func (n *Node) Subscribe(t Topic) error { return n.safe.Subscribe(t) }

// Unsubscribe removes t from the subscription list.
func (n *Node) Unsubscribe(t Topic) { n.safe.Unsubscribe(t) }

// Publish disseminates payload on t with the given validity period and
// returns the event id.
func (n *Node) Publish(t Topic, payload []byte, validity time.Duration) (EventID, error) {
	id, err := n.safe.Publish(t, payload, validity)
	if err == nil {
		if r := n.flight.Load(); r != nil {
			r.Add(trace.Record{At: n.flightNow(), Node: n.id, Op: trace.OpPublish, Event: id})
		}
	}
	return id, err
}

// HandleMessage feeds a message received by a custom transport into the
// protocol. Safe to call from any goroutine.
func (n *Node) HandleMessage(m Message) error {
	n.recordReceive(m)
	return n.safe.HandleMessage(m)
}

// Neighbors returns the ids currently in the neighborhood table.
func (n *Node) Neighbors() []NodeID { return n.safe.NeighborIDs() }

// HasEvent reports whether the node's event table holds id.
func (n *Node) HasEvent(id EventID) bool { return n.safe.HasEvent(id) }

// Stats returns a snapshot of the protocol counters.
func (n *Node) Stats() Stats { return n.safe.Stats() }

// TransportStats returns a snapshot of the UDP transport counters, or
// the zero value for custom transports.
func (n *Node) TransportStats() TransportStats {
	if n.udp == nil {
		return TransportStats{}
	}
	return n.udp.Stats()
}

// LocalAddr returns the UDP listen address, or nil for custom
// transports.
func (n *Node) LocalAddr() string {
	if n.udp == nil {
		return ""
	}
	return n.udp.LocalAddr().String()
}

// AddPeer extends the UDP roster at runtime. It errors on custom
// transports.
func (n *Node) AddPeer(addr string) error {
	if n.udp == nil {
		return errors.New("pubsub: AddPeer requires the UDP transport")
	}
	return n.udp.AddPeer(addr)
}

// RemovePeer drops addr from the UDP broadcast roster, reporting
// whether it was present. It is false (and a no-op) on custom
// transports.
func (n *Node) RemovePeer(addr string) bool {
	if n.udp == nil {
		return false
	}
	return n.udp.RemovePeer(addr)
}

// Peers returns the UDP transport's current broadcast roster, sorted —
// the transport-level membership view, as opposed to Neighbors, which
// is the protocol-level neighborhood table built from heartbeats. Nil
// on custom transports.
func (n *Node) Peers() []string {
	if n.udp == nil {
		return nil
	}
	return n.udp.Peers()
}

// Close stops the protocol and releases the transport.
func (n *Node) Close() error {
	n.safe.Stop()
	if n.udp != nil {
		return n.udp.Close()
	}
	return nil
}
