package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/topic"
)

// knowsID reports whether nb is presumed to hold id.
func knowsID(p *Protocol, nb *neighbor, id event.ID) bool {
	s, ok := p.table.slots[id]
	return ok && nb.knows(s)
}

// silentNode builds a node on .t that hears only what the test feeds it:
// it is the harness's sole member, so its own broadcasts reach nobody.
func silentNode(t *testing.T, cfg Config) (*harness, *Protocol) {
	h := newHarness(t, 40)
	return h, h.addNode(1, cfg, ".t")
}

func feed(t *testing.T, p *Protocol, m event.Message) {
	t.Helper()
	if err := p.HandleMessage(m); err != nil {
		t.Fatal(err)
	}
}

func hbFrom(id event.NodeID) event.Heartbeat {
	return event.Heartbeat{From: id, Subscriptions: []topic.Topic{topic.MustParse(".t")}, Speed: -1}
}

func eventsFrom(from event.NodeID, ids ...uint64) event.Events {
	m := event.Events{From: from}
	for _, id := range ids {
		m.Events = append(m.Events, mkEvent(id, ".t", time.Minute))
	}
	return m
}

// sendSetLos returns computeSendSet's event ids (Lo halves) and receivers.
func sendSetLos(p *Protocol) ([]uint64, []event.NodeID) {
	entries, receivers := p.computeSendSet()
	los := make([]uint64, len(entries))
	for i, e := range entries {
		los[i] = e.ev.ID.Lo
	}
	return los, receivers
}

func wantSendSet(t *testing.T, p *Protocol, los []uint64, receivers []event.NodeID) {
	t.Helper()
	gotLos, gotRecv := sendSetLos(p)
	if len(gotLos) != len(los) || len(gotRecv) != len(receivers) {
		t.Fatalf("send set = %v to %v, want %v to %v", gotLos, gotRecv, los, receivers)
	}
	for i := range los {
		if gotLos[i] != los[i] {
			t.Fatalf("send set = %v, want %v", gotLos, los)
		}
	}
	for i := range receivers {
		if gotRecv[i] != receivers[i] {
			t.Fatalf("receivers = %v, want %v", gotRecv, receivers)
		}
	}
	if n := p.sendCount(); n != len(los) {
		t.Fatalf("sendCount = %d, want %d", n, len(los))
	}
}

func TestAnnouncedBeforeStoredStaysKnown(t *testing.T) {
	_, p := silentNode(t, Config{})
	feed(t, p, hbFrom(2))
	feed(t, p, hbFrom(3))
	// Neighbor 2 announces event 7 before we hold it.
	feed(t, p, event.IDList{From: 2, IDs: []event.ID{{Lo: 7}}})
	// An undiscovered sender hands us event 7: no holder is marked.
	feed(t, p, eventsFrom(9, 7))
	if !p.HasEvent(event.ID{Lo: 7}) {
		t.Fatal("event not stored")
	}
	wantSendSet(t, p, []uint64{7}, []event.NodeID{3})
}

func TestEvictedAndReceivedAgainStaysKnown(t *testing.T) {
	_, p := silentNode(t, Config{MaxEvents: 1})
	feed(t, p, hbFrom(2))
	feed(t, p, hbFrom(3))
	feed(t, p, eventsFrom(2, 7)) // neighbor 2 holds 7
	feed(t, p, eventsFrom(9, 8)) // evicts 7
	if p.HasEvent(event.ID{Lo: 7}) {
		t.Fatal("capacity 1 kept the first event")
	}
	feed(t, p, eventsFrom(9, 7)) // 7 again, evicting 8
	if got := p.Stats().TableEvictions; got != 2 {
		t.Fatalf("TableEvictions = %d, want 2", got)
	}
	if got := p.Stats().Duplicates; got != 0 {
		t.Fatalf("Duplicates = %d, want 0", got)
	}
	wantSendSet(t, p, []uint64{7}, []event.NodeID{3})
}

func TestRediscoveredNeighborStartsEmpty(t *testing.T) {
	h, p := silentNode(t, Config{})
	feed(t, p, eventsFrom(9, 7))
	feed(t, p, hbFrom(2))
	feed(t, p, event.IDList{From: 2, IDs: []event.ID{{Lo: 7}}})
	wantSendSet(t, p, nil, nil)
	h.runUntil(10) // neighbor 2 stays silent well past ngcDelay
	if p.nbrs.get(2) != nil || p.Stats().NeighborsGCed != 1 {
		t.Fatalf("neighbor 2 not collected (GCed %d)", p.Stats().NeighborsGCed)
	}
	feed(t, p, hbFrom(2))
	if knowsID(p, p.nbrs.get(2), event.ID{Lo: 7}) {
		t.Fatal("rediscovered neighbor inherited its old knowledge")
	}
	wantSendSet(t, p, []uint64{7}, []event.NodeID{2})
}

// checkOrder compares validEntries with a sort.Slice(olderID) reference
// built from the slot index.
func checkOrder(t *testing.T, tb *eventTable, now time.Duration) {
	t.Helper()
	var ref []*tableEntry
	for _, e := range tb.bySlot {
		if e != nil && e.valid(now) {
			ref = append(ref, e)
		}
	}
	sort.Slice(ref, func(i, j int) bool { return olderID(ref[i], ref[j]) })
	got := tb.validEntries(now)
	if len(got) != len(ref) {
		t.Fatalf("at %v: %d valid entries, reference %d", now, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("at %v: validEntries[%d] = %v, reference %v", now, i, got[i].ev.ID, ref[i].ev.ID)
		}
	}
}

func TestValidEntriesMatchSortedReference(t *testing.T) {
	for _, policy := range []GCPolicy{GCPaper, GCFIFO, GCRandom} {
		tb := newEventTable(6)
		tb.policy = policy
		tb.rng = rand.New(rand.NewSource(3))
		rng := rand.New(rand.NewSource(4))
		evictions := 0
		for i := 0; i < 200; i++ {
			now := time.Duration(i/4) * time.Second // four inserts per instant
			validity := time.Duration(1+rng.Intn(8)) * time.Second
			ev := mkEvent(uint64(rng.Intn(1000)), ".a", validity)
			if tb.has(ev.ID) {
				continue
			}
			if tb.insert(ev, now) != nil {
				evictions++
			}
			if tb.len() > 6 {
				t.Fatalf("table grew to %d", tb.len())
			}
			checkOrder(t, tb, now)
		}
		if evictions == 0 {
			t.Fatalf("policy %v: no eviction exercised", policy)
		}
	}
}

func TestReinsertedIDDisplacesEntry(t *testing.T) {
	// A crash-recovered publisher may re-issue an id it already stores:
	// the newer entry replaces the older one in the index.
	tb := newEventTable(0)
	tb.insert(mkEvent(1, ".a", time.Minute), 0)
	tb.insert(mkEvent(2, ".a", time.Minute), 0)
	tb.insert(mkEvent(1, ".a", time.Minute), time.Second)
	if tb.len() != 2 {
		t.Fatalf("len = %d, want 2", tb.len())
	}
	if e := tb.get(event.ID{Lo: 1}); e.storedAt != time.Second {
		t.Fatalf("get returned the displaced entry (storedAt %v)", e.storedAt)
	}
	checkOrder(t, tb, 2*time.Second)
}

func TestPendingPruneSkipsUntilExpiry(t *testing.T) {
	h, p := silentNode(t, Config{})
	ngc := p.NGCDelay()
	at := func(d time.Duration) { h.eng.RunUntil(sim.Time(d)) }
	x := event.ID{Lo: 77}

	feed(t, p, event.IDList{From: 5, IDs: []event.ID{x}}) // at 0
	at(2 * time.Second)
	feed(t, p, event.IDList{From: 6}) // at 2s
	at(ngc)
	feed(t, p, event.IDList{From: 7}) // exactly ngcDelay after 5's list: kept
	if _, ok := p.pendingIDs[5]; !ok || len(p.pendingIDs) != 3 {
		t.Fatalf("list expired early: %d stashed", len(p.pendingIDs))
	}
	at(ngc + 1)
	feed(t, p, event.IDList{From: 8})
	if _, ok := p.pendingIDs[5]; ok {
		t.Fatal("list older than ngcDelay survived")
	}
	// The rescan must lower the bound to 6's list (2s), not to now.
	at(2*time.Second + ngc + 1)
	feed(t, p, event.IDList{From: 9})
	if _, ok := p.pendingIDs[6]; ok {
		t.Fatal("second list outlived ngcDelay")
	}
	if len(p.pendingIDs) != 3 { // 7, 8, 9
		t.Fatalf("stash holds %d lists, want 3", len(p.pendingIDs))
	}
}

func TestPendingCapAdmitsAfterExpiry(t *testing.T) {
	h, p := silentNode(t, Config{})
	for i := 0; i < maxPendingIDLists; i++ {
		feed(t, p, event.IDList{From: event.NodeID(100 + i)})
	}
	h.runUntil(1)
	feed(t, p, event.IDList{From: 500})
	if _, ok := p.pendingIDs[500]; ok {
		t.Fatal("full stash admitted a new sender")
	}
	h.eng.RunUntil(sim.Time(p.NGCDelay() + 1))
	feed(t, p, event.IDList{From: 501})
	if _, ok := p.pendingIDs[501]; !ok || len(p.pendingIDs) != 1 {
		t.Fatalf("expired lists blocked a new sender: %d stashed", len(p.pendingIDs))
	}
}

func TestPendingListAppliedOnDiscovery(t *testing.T) {
	h, p := silentNode(t, Config{})
	feed(t, p, eventsFrom(9, 7, 8))
	x := event.ID{Lo: 7}
	feed(t, p, event.IDList{From: 5, IDs: []event.ID{x}})
	h.runUntil(1)
	feed(t, p, hbFrom(5))
	nb := p.nbrs.get(5)
	if nb == nil || !knowsID(p, nb, x) {
		t.Fatal("stashed list not applied on discovery")
	}
	if len(p.pendingIDs) != 0 {
		t.Fatal("stash entry not consumed")
	}
	wantSendSet(t, p, []uint64{8}, []event.NodeID{5})
}

func TestArmOnlyPathAllocationFlat(t *testing.T) {
	_, p := silentNode(t, Config{})
	var ids []event.ID
	for i := uint64(1); i <= 32; i++ {
		feed(t, p, eventsFrom(9, i))
		ids = append(ids, event.ID{Lo: i})
	}
	for id := event.NodeID(2); id <= 101; id++ {
		feed(t, p, hbFrom(id))
		if id < 101 {
			feed(t, p, event.IDList{From: id, IDs: ids})
		}
	}
	var list event.Message = event.IDList{From: 2, IDs: ids} // boxed once
	feed(t, p, list)                                         // arms the back-off: neighbor 101 needs all 32
	if p.boTimer == nil || p.sendCount() != 32 {
		t.Fatalf("back-off not armed (sendCount %d)", p.sendCount())
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.HandleMessage(list) }); n != 0 {
		t.Fatalf("arm-only IDList allocates %v times per call", n)
	}
}
