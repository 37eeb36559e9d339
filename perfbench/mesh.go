package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
	"repro/pubsub"
)

// udp-mesh: eight pubsub nodes on 127.0.0.1 in a static full mesh,
// heartbeating every 10 ms, fed by one open-loop publisher: a seeded
// Poisson stream of 20 events/s with 256 B payloads and 1 s validity.
// The load sits well below saturation on purpose: here the transport
// does most of the work, and core little.
const (
	meshNodes    = 8
	meshHB       = 10 * time.Millisecond
	meshRate     = 20.0 // events per second
	meshPayload  = 256
	meshValidity = time.Second
	// meshProbes extra meshes are built and torn down before each timed
	// one; their set-up times and the timed meshes' feed setup_s.
	meshProbes = 16
	// meshWindows splits an untraced run into independent meshes:
	// traffic differs from one mesh to the next under identical load
	// (single-mesh runs moved allocation by up to 17%), so a run
	// averages several.
	meshWindows = 3
)

var meshTopic = pubsub.MustParseTopic(".bench.events")

// schedule is the generated open-loop input: due offsets from the
// publish clock's origin, publishers and payloads, one per sequence
// number. The payload carries the sequence number so the delivery
// callback, which runs under the receiving protocol's lock, never needs
// a lock that Publish holds.
type schedule struct {
	due      []time.Duration
	pub      []int
	payloads [][]byte
}

func newSchedule(seed int64, window time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	// A Poisson process conditioned on its count: rate x window arrival
	// times drawn uniformly and sorted, so every seed offers the same
	// load and only the arrival pattern varies.
	n := max(1, int(meshRate*window.Seconds()+0.5))
	s := schedule{due: make([]time.Duration, n)}
	for i := range s.due {
		s.due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	slices.Sort(s.due)
	for i := range s.due {
		p := make([]byte, meshPayload)
		rng.Read(p)
		binary.BigEndian.PutUint64(p, uint64(i))
		s.pub = append(s.pub, rng.Intn(meshNodes))
		s.payloads = append(s.payloads, p)
	}
	return s
}

// meshNode is one member. Traced meshes own the transport (pubsub.NewNode
// over a timed transport.UDP); untraced ones use NewUDPNodeTuned.
type meshNode struct {
	id   event.NodeID
	node *pubsub.Node
	udp  *transport.UDP
	// spanMu keeps the node's traced spans (handler and Publish, on
	// different goroutines) from overlapping, so a broadcast is
	// charged to at most one open span. The protocol itself already
	// serializes them under core.Safe's lock.
	spanMu sync.Mutex
	st     *nest
}

func (n *meshNode) transportStats() transport.Stats {
	if n.udp != nil {
		return n.udp.Stats()
	}
	return n.node.TransportStats()
}

func (n *meshNode) addr() string {
	if n.udp != nil {
		return n.udp.LocalAddr().String()
	}
	return n.node.LocalAddr()
}

func (n *meshNode) addPeer(a string) error {
	if n.udp != nil {
		return n.udp.AddPeer(a)
	}
	return n.node.AddPeer(a)
}

func (n *meshNode) close() {
	_ = n.node.Close() // loopback socket close; nothing to recover
	if n.udp != nil {
		_ = n.udp.Close()
	}
}

// mesh is one built mesh plus its delivery log.
type mesh struct {
	nodes []*meshNode
	tr    *meshTracer
	base  time.Time
	// delivered[node][seq] is the first delivery time in ns since base,
	// 0 when not (yet) delivered.
	delivered [][]atomic.Int64
}

// buildMesh binds every node, wires the full mesh and waits until each
// node's neighbour table lists all its peers; the elapsed time from
// the first bind is the mesh's set-up time.
func buildMesh(seed int64, events int, tr *meshTracer) (*mesh, time.Duration, error) {
	m := &mesh{tr: tr, base: time.Now(), delivered: make([][]atomic.Int64, meshNodes)}
	for i := range m.delivered {
		m.delivered[i] = make([]atomic.Int64, events)
	}
	for i := 0; i < meshNodes; i++ {
		n, err := m.newNode(seed, event.NodeID(i))
		if err != nil {
			m.close()
			return nil, 0, err
		}
		m.nodes = append(m.nodes, n)
	}
	for _, n := range m.nodes {
		for _, p := range m.nodes {
			if p != n {
				if err := n.addPeer(p.addr()); err != nil {
					m.close()
					return nil, 0, err
				}
			}
		}
		if err := n.node.Subscribe(meshTopic); err != nil {
			m.close()
			return nil, 0, err
		}
	}
	for {
		ready := true
		for _, n := range m.nodes {
			if len(n.node.Neighbors()) < meshNodes-1 {
				ready = false
				break
			}
		}
		if ready {
			return m, time.Since(m.base), nil
		}
		if time.Since(m.base) > 10*time.Second {
			m.close()
			return nil, 0, errors.New("udp-mesh: neighbour tables never filled")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (m *mesh) newNode(seed int64, id event.NodeID) (*meshNode, error) {
	mn := &meshNode{id: id, st: new(nest)}
	log := m.delivered[id]
	cfg := pubsub.Config{
		ID:           id,
		HBDelay:      meshHB,
		HBLowerBound: meshHB,
		HBUpperBound: meshHB,
		Rand:         rand.New(rand.NewSource(seed*7919 + int64(id))),
		OnDeliver: func(ev pubsub.Event) {
			if ev.Publisher == id || len(ev.Payload) < 8 {
				return // the publisher's local self-delivery
			}
			if seq := binary.BigEndian.Uint64(ev.Payload); seq < uint64(len(log)) {
				log[seq].CompareAndSwap(0, int64(time.Since(m.base)))
			}
		},
	}
	if m.tr == nil {
		n, err := pubsub.NewUDPNodeTuned(cfg, "127.0.0.1:0", nil, pubsub.UDPTuning{})
		if err != nil {
			return nil, err
		}
		mn.node = n
		return mn, nil
	}
	udp, err := transport.NewUDP(transport.UDPConfig{
		Listen:  "127.0.0.1:0",
		Handler: func(msg event.Message) { m.tr.receive(mn, msg) },
	})
	if err != nil {
		return nil, err
	}
	n, err := pubsub.NewNode(cfg, tracedUDP{tr: m.tr, udp: udp, mn: mn})
	if err != nil {
		_ = udp.Close()
		return nil, err
	}
	mn.node, mn.udp = n, udp
	udp.Start()
	return mn, nil
}

func (m *mesh) close() {
	for _, n := range m.nodes {
		n.close()
	}
}

func (m *mesh) publish(mn *meshNode, payload []byte) error {
	if m.tr == nil {
		_, err := mn.node.Publish(meshTopic, payload, meshValidity)
		return err
	}
	var err error
	mn.spanMu.Lock()
	defer mn.spanMu.Unlock()
	spanOf(m.tr.now, &m.tr.publish, int(mn.id), mn.st, func() {
		_, err = mn.node.Publish(meshTopic, payload, meshValidity)
	})
	return err
}

// meshRun is one timed mesh window's raw outcome.
type meshRun struct {
	win        windowResult
	setups     []float64
	latencies  []float64 // ms, per delivered (event, subscriber) pair
	pairs      int
	publishes  int
	delivered  int
	late       int
	pubErrs    int
	genLag     time.Duration // summed over publishes
	servedSpan time.Duration
	offered    time.Duration
	stats      []transport.Stats
	proto      []pubsub.Stats
	// offLoopback is set when a node bound off the loopback interface.
	offLoopback bool
}

// add folds another window into r: costs add up, samples pool.
func (r *meshRun) add(w meshRun) {
	r.win.wall += w.win.wall
	r.win.cpu += w.win.cpu
	r.win.allocMB += w.win.allocMB
	r.win.peakHeapMB = max(r.win.peakHeapMB, w.win.peakHeapMB)
	r.setups = append(r.setups, w.setups...)
	r.latencies = append(r.latencies, w.latencies...)
	r.pairs += w.pairs
	r.publishes += w.publishes
	r.delivered += w.delivered
	r.late += w.late
	r.pubErrs += w.pubErrs
	r.genLag += w.genLag
	r.servedSpan += w.servedSpan
	r.offered += w.offered
	r.stats = append(r.stats, w.stats...)
	r.proto = append(r.proto, w.proto...)
	r.offLoopback = r.offLoopback || w.offLoopback
}

// runMeshWindow builds meshProbes throw-away meshes for set-up samples,
// then the timed mesh, publishes the schedule open-loop and keeps the
// window open a fixed validity past the publish window so the last
// events can arrive.
func runMeshWindow(seed int64, window time.Duration, tr *meshTracer) (meshRun, error) {
	var r meshRun
	for i := 0; i < meshProbes; i++ {
		m, setup, err := buildMesh(seed, 0, nil)
		if err != nil {
			return r, fmt.Errorf("set-up probe: %w", err)
		}
		m.close()
		r.setups = append(r.setups, setup.Seconds())
	}
	sch := newSchedule(seed, window)
	m, setup, err := buildMesh(seed, len(sch.due), tr)
	if err != nil {
		return r, err
	}
	r.setups = append(r.setups, setup.Seconds())
	for _, n := range m.nodes {
		r.offLoopback = r.offLoopback || !isLoopback(n.addr())
	}
	if tr != nil {
		tr.startSampling(m)
	}
	win := openWindow()
	origin := time.Since(m.base)
	for seq, due := range sch.due {
		if d := due - (time.Since(m.base) - origin); d > 0 {
			time.Sleep(d)
		}
		r.genLag += time.Since(m.base) - origin - due
		if err := m.publish(m.nodes[sch.pub[seq]], sch.payloads[seq]); err != nil {
			r.pubErrs++
		}
	}
	r.servedSpan = time.Since(m.base) - origin
	r.publishes = len(sch.due)
	r.offered = sch.due[len(sch.due)-1]
	if d := window + meshValidity - (time.Since(m.base) - origin); d > 0 {
		time.Sleep(d)
	}
	r.win = win.close()
	if tr != nil {
		tr.stopSampling()
	}
	m.close()
	for i, n := range m.nodes {
		r.stats = append(r.stats, n.transportStats())
		r.proto = append(r.proto, n.node.Stats())
		for seq, due := range sch.due {
			if sch.pub[seq] == i {
				continue
			}
			r.pairs++
			at := m.delivered[i][seq].Load()
			if at == 0 {
				continue
			}
			lat := time.Duration(at) - origin - due
			if lat > meshValidity {
				r.late++
				continue
			}
			r.delivered++
			r.latencies = append(r.latencies, float64(lat)/float64(time.Millisecond))
		}
	}
	return r, nil
}

// checkMesh applies the real path's output checks. The operations are
// the (event, eligible subscriber) pairs, delivered within validity;
// the publishes; each node's transport, with no decode errors and
// conserving broadcasts (every broadcast the protocol made is dropped
// or offered to every peer; Close may cut one message mid-batch,
// offering it to some peers and counting it dropped, hence the
// one-message tolerance); and the loopback check.
func checkMesh(o *outcome, r meshRun) {
	o.attempted += r.pairs + r.publishes + len(r.stats) + 1
	if miss := r.pairs - r.delivered; miss > 0 {
		o.failN(miss, "udp-mesh: %d of %d (event, subscriber) pairs not delivered within validity (%d late)",
			miss, r.pairs, r.late)
	}
	if r.pubErrs > 0 {
		o.failN(r.pubErrs, "udp-mesh: %d publish errors", r.pubErrs)
	}
	if r.offLoopback {
		o.fail("udp-mesh: a node bound off loopback")
	}
	for i, s := range r.stats {
		p := r.proto[i]
		broadcasts := p.HeartbeatsSent + p.IDListsSent + p.EventMsgsSent
		offered := int64(s.DatagramsSent + s.SendErrors)
		want := int64(broadcasts-s.Dropped) * (meshNodes - 1)
		if d := offered - want; s.DecodeErrors > 0 || d < 0 || d >= meshNodes-1 {
			o.fail("udp-mesh: node %d: %d decode errors; %d broadcasts, %d dropped, %d datagrams offered to %d peers",
				i, s.DecodeErrors, broadcasts, s.Dropped, offered, meshNodes-1)
		}
	}
}

// runMesh is the udp-mesh workload. Untraced it times meshWindows
// windows that share the budget, each on a fresh mesh. Traced it splits the budget into an untraced and a
// traced window of the same schedule, so their CPU difference is the
// tracing overhead.
func runMesh(seed int64, budget time.Duration, traced bool) outcome {
	o := outcome{values: map[string]float64{}}
	if !traced {
		var r meshRun
		for i := 0; i < meshWindows; i++ {
			w, err := runMeshWindow(seed*meshWindows+int64(i), max(budget/meshWindows, time.Second), nil)
			if err != nil {
				o.attempted++
				o.fail("udp-mesh: %v", err)
				return o
			}
			r.add(w)
		}
		checkMesh(&o, r)
		p50, p99 := quantile(r.latencies, 0.5), quantile(r.latencies, 0.99)
		o.values["sim_speed"] = r.offered.Seconds() / r.servedSpan.Seconds()
		o.values["cpu_s"] = r.win.cpu.Seconds()
		o.values["alloc_mb"] = r.win.allocMB
		o.values["peak_heap_mb"] = r.win.peakHeapMB
		o.values["setup_s"] = median(r.setups)
		o.values["deliver_p50_ms"] = p50
		o.values["delivery_ratio"] = float64(r.delivered) / float64(r.pairs)
		printJSON(meshRecord(r, p99))
		return o
	}
	half := max(budget/2, time.Second)
	plain, err := runMeshWindow(seed, half, nil)
	if err != nil {
		o.attempted++
		o.fail("udp-mesh: %v", err)
		return o
	}
	checkMesh(&o, plain)
	tr := newMeshTracer(wallClock())
	r, err := runMeshWindow(seed, half, tr)
	if err != nil {
		o.attempted++
		o.fail("udp-mesh traced: %v", err)
		return o
	}
	checkMesh(&o, r)
	tr.check(&o, r)
	tr.report(o.values, r)
	o.values["trace.wall_s"] = r.win.wall.Seconds()
	o.values["trace.overhead_wall_s"] = r.win.wall.Seconds() - plain.win.wall.Seconds()
	o.values["trace.overhead_cpu_s"] = r.win.cpu.Seconds() - plain.win.cpu.Seconds()
	printJSON(meshRecord(r, quantile(r.latencies, 0.99)))
	return o
}

// meshRecord is the ungated part of a udp-mesh report, printed before
// the result.
func meshRecord(r meshRun, p99 float64) any {
	var sent, mmsgSends, mmsgRecvs uint64
	for _, s := range r.stats {
		sent += s.DatagramsSent
		mmsgSends += s.MmsgSends
		mmsgRecvs += s.MmsgRecvs
	}
	return struct {
		Workload      string  `json:"workload"`
		Pairs         int     `json:"pairs"`
		Delivered     int     `json:"delivered"`
		DeliverP99MS  float64 `json:"deliver_p99_ms"`
		GenLagMS      float64 `json:"gen_lag_ms"`
		DatagramsSent uint64  `json:"datagrams_sent"`
		SendmmsgUsed  bool    `json:"sendmmsg_engaged"`
		RecvmmsgUsed  bool    `json:"recvmmsg_engaged"`
		Loopback      bool    `json:"loopback"`
	}{"udp-mesh", r.pairs, r.delivered, p99, float64(r.genLag) / float64(r.publishes) / float64(time.Millisecond),
		sent, mmsgSends > 0, mmsgRecvs > 0, !r.offLoopback}
}

// meshTracer times the real path from outside: Broadcast into the UDP
// transport, the transport's handler into the node, and Publish.
type meshTracer struct {
	now                        clock
	broadcast, handle, publish opAgg
	hop                        opAgg

	mu   sync.Mutex
	sent map[hopKey]int64 // Events broadcast time by (sender, first event)

	stop           chan struct{}
	done           chan struct{}
	sendQ, recvQ   int
	handlerCalls   atomic.Int64
	broadcastCalls atomic.Int64
}

type hopKey struct {
	from  event.NodeID
	first event.ID
}

func newMeshTracer(now clock) *meshTracer {
	return &meshTracer{now: now, sent: make(map[hopKey]int64)}
}

// tracedUDP is the node's transport in a traced mesh.
type tracedUDP struct {
	tr  *meshTracer
	udp *transport.UDP
	mn  *meshNode
}

func (t tracedUDP) Broadcast(msg event.Message) {
	t.tr.broadcastCalls.Add(1)
	if ev, ok := msg.(event.Events); ok && len(ev.Events) > 0 {
		k := hopKey{ev.From, ev.Events[0].ID}
		t.tr.mu.Lock()
		t.tr.sent[k] = t.tr.now()
		t.tr.mu.Unlock()
	}
	childOf(t.tr.now, &t.tr.broadcast, int(t.mn.id), t.mn.st, func() { t.udp.Broadcast(msg) })
}

// receive is the transport handler: close the hop span of an Events
// message, then run the node's handler as a core span.
func (tr *meshTracer) receive(mn *meshNode, msg event.Message) {
	tr.handlerCalls.Add(1)
	if ev, ok := msg.(event.Events); ok && len(ev.Events) > 0 {
		now := tr.now()
		tr.mu.Lock()
		at, ok := tr.sent[hopKey{ev.From, ev.Events[0].ID}]
		tr.mu.Unlock()
		if ok {
			tr.hop.add(int(mn.id), now-at, now-at)
		}
	}
	mn.spanMu.Lock()
	defer mn.spanMu.Unlock()
	spanOf(tr.now, &tr.handle, int(mn.id), mn.st, func() { _ = mn.node.HandleMessage(msg) })
}

// startSampling polls the rings' occupancy for the queue maxima.
func (tr *meshTracer) startSampling(m *mesh) {
	tr.stop, tr.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tr.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-tr.stop:
				return
			case <-t.C:
				for _, n := range m.nodes {
					s, r := n.udp.QueueDepths()
					tr.sendQ, tr.recvQ = max(tr.sendQ, s), max(tr.recvQ, r)
				}
			}
		}
	}()
}

func (tr *meshTracer) stopSampling() {
	close(tr.stop)
	<-tr.done
}

// check cross-checks the wrappers' counts against the program's own
// counters: every protocol broadcast passed through the timed
// transport, and every datagram the transports decoded reached the
// timed handler.
func (tr *meshTracer) check(o *outcome, r meshRun) {
	var broadcasts, received uint64
	for i, s := range r.stats {
		p := r.proto[i]
		broadcasts += p.HeartbeatsSent + p.IDListsSent + p.EventMsgsSent
		received += s.DatagramsReceived
	}
	o.attempted += 2
	if got := uint64(tr.broadcastCalls.Load()); got != broadcasts {
		o.fail("udp-mesh traced: %d broadcasts timed, protocols sent %d", got, broadcasts)
	}
	if got := uint64(tr.handlerCalls.Load()); got != received {
		o.fail("udp-mesh traced: %d handler calls timed, transports decoded %d", got, received)
	}
}

// report writes the real path's per-layer metrics.
func (tr *meshTracer) report(v map[string]float64, r meshRun) {
	bc, h, pb, hop := tr.broadcast.summary(), tr.handle.summary(), tr.publish.summary(), tr.hop.summary()
	v["transport.broadcast_calls"] = float64(bc.Count)
	v["transport.broadcast_s"] = bc.TotalS
	v["transport.hop_p50_us"] = hop.P50S * 1e6
	v["transport.hop_p99_us"] = hop.P99S * 1e6
	v["core.handle_calls"] = float64(h.Count)
	v["core.handle_self_s"] = h.SelfS
	v["pubsub.publish_calls"] = float64(pb.Count)
	v["pubsub.publish_s"] = pb.SelfS
	v["core.publish_calls"] = float64(pb.Count)
	v["core.publish_self_s"] = pb.SelfS
	var s transport.Stats
	for _, x := range r.stats {
		s.DatagramsSent += x.DatagramsSent
		s.DatagramsReceived += x.DatagramsReceived
		s.MmsgSends += x.MmsgSends
		s.MmsgRecvs += x.MmsgRecvs
		s.Dropped += x.Dropped
		s.RecvDropped += x.RecvDropped
		s.SendErrors += x.SendErrors
		s.DecodeErrors += x.DecodeErrors
	}
	v["transport.datagrams_sent"] = float64(s.DatagramsSent)
	v["transport.datagrams_per_sendmmsg"] = ratioOf(float64(s.DatagramsSent), float64(s.MmsgSends))
	v["transport.datagrams_per_recvmmsg"] = ratioOf(float64(s.DatagramsReceived), float64(s.MmsgRecvs))
	v["transport.send_queue_max"] = float64(tr.sendQ)
	v["transport.recv_queue_max"] = float64(tr.recvQ)
	v["transport.send_drops"] = float64(s.Dropped)
	v["transport.recv_drops"] = float64(s.RecvDropped)
	v["transport.send_errors"] = float64(s.SendErrors)
	v["transport.decode_errors"] = float64(s.DecodeErrors)
	var msgs, evRecv, dups, parasites float64
	for _, p := range r.proto {
		msgs += float64(p.HeartbeatsSent + p.IDListsSent + p.EventMsgsSent)
		evRecv += float64(p.EventsReceived)
		dups += float64(p.Duplicates)
		parasites += float64(p.Parasites)
	}
	v["core.msgs_sent"] = msgs
	v["core.duplicate_ratio"] = ratioOf(dups, evRecv)
	v["core.parasite_ratio"] = ratioOf(parasites, evRecv)
	printJSON(struct {
		Workload string                `json:"workload"`
		Spans    map[string]aggSummary `json:"spans"`
	}{"udp-mesh", map[string]aggSummary{
		"transport.broadcast": bc, "transport.hop": hop, "core.handle": h, "pubsub.publish": pb,
	}})
}
