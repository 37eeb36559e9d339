package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

func mkEvent(id uint64, top string, validity time.Duration) event.Event {
	return event.Event{
		ID:        event.ID{Lo: id},
		Topic:     topic.MustParse(top),
		Validity:  validity,
		Remaining: validity,
	}
}

func TestTableInsertHas(t *testing.T) {
	tb := newEventTable(0)
	ev := mkEvent(1, ".a", time.Minute)
	if tb.has(ev.ID) {
		t.Fatal("empty table has event")
	}
	if evicted := tb.insert(ev, 0); evicted != nil {
		t.Fatal("unbounded table evicted")
	}
	if !tb.has(ev.ID) || tb.len() != 1 {
		t.Fatal("insert failed")
	}
	e := tb.get(ev.ID)
	if e.expiresAt != time.Minute {
		t.Fatalf("expiresAt = %v", e.expiresAt)
	}
	if !e.valid(30*time.Second) || e.valid(time.Minute) {
		t.Fatal("validity window wrong")
	}
	if got := e.remaining(45 * time.Second); got != 15*time.Second {
		t.Fatalf("remaining = %v", got)
	}
	if got := e.remaining(2 * time.Minute); got != 0 {
		t.Fatalf("remaining past expiry = %v", got)
	}
}

func TestGCScorePaperExample(t *testing.T) {
	// Paper Section 4.4: "an event with a validity period of 2 min that
	// has been forwarded less than 2 times will be collected AFTER an
	// event with a validity period of 5 min that has been forwarded 5
	// times."
	short := &tableEntry{ev: mkEvent(1, ".a", 2*time.Minute), fwd: 1}
	long := &tableEntry{ev: mkEvent(2, ".a", 5*time.Minute), fwd: 5}
	if !(long.gcScore() < short.gcScore()) {
		t.Fatalf("gc ordering violates paper example: long=%v short=%v",
			long.gcScore(), short.gcScore())
	}
}

func TestGCPrefersExpired(t *testing.T) {
	tb := newEventTable(2)
	tb.insert(mkEvent(1, ".a", time.Second), 0) // expires at 1s
	tb.insert(mkEvent(2, ".a", time.Hour), 0)
	// At t=2s, inserting a third event must evict the expired one even
	// though the long-lived event has a (much) lower score potential.
	tb.get(event.ID{Lo: 2}).fwd = 100
	evicted := tb.insert(mkEvent(3, ".a", time.Minute), 2*time.Second)
	if evicted == nil || evicted.ev.ID.Lo != 1 {
		t.Fatalf("evicted = %+v, want expired event 1", evicted)
	}
	if tb.len() != 2 {
		t.Fatalf("len = %d", tb.len())
	}
}

func TestGCEvictsLowestScore(t *testing.T) {
	tb := newEventTable(3)
	tb.insert(mkEvent(1, ".a", 2*time.Minute), 0)
	tb.insert(mkEvent(2, ".a", 5*time.Minute), 0)
	tb.insert(mkEvent(3, ".a", time.Minute), 0)
	tb.get(event.ID{Lo: 1}).fwd = 1
	tb.get(event.ID{Lo: 2}).fwd = 5 // lowest score per paper example
	tb.get(event.ID{Lo: 3}).fwd = 0
	evicted := tb.insert(mkEvent(4, ".a", time.Minute), time.Second)
	if evicted == nil || evicted.ev.ID.Lo != 2 {
		t.Fatalf("evicted %+v, want event 2", evicted)
	}
}

func TestGCNeverForwardedShortLivedSurvives(t *testing.T) {
	// A short-validity, never-forwarded event must outlive long-validity,
	// heavily-forwarded ones — that is the point of Equation 1.
	tb := newEventTable(2)
	tb.insert(mkEvent(1, ".a", 20*time.Second), 0)
	tb.insert(mkEvent(2, ".a", 10*time.Minute), 0)
	tb.get(event.ID{Lo: 2}).fwd = 12
	tb.insert(mkEvent(3, ".a", time.Minute), time.Second)
	if !tb.has(event.ID{Lo: 1}) {
		t.Fatal("short-lived unforwarded event was evicted")
	}
	if tb.has(event.ID{Lo: 2}) {
		t.Fatal("forwarded long-lived event should have been evicted")
	}
}

func TestTableCapacityInvariant(t *testing.T) {
	tb := newEventTable(5)
	rng := rand.New(rand.NewSource(1))
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += time.Duration(rng.Intn(3)) * time.Second
		ev := mkEvent(uint64(i+1), ".a", time.Duration(1+rng.Intn(300))*time.Second)
		tb.insert(ev, now)
		if tb.len() > 5 {
			t.Fatalf("table exceeded capacity: %d", tb.len())
		}
		if e := tb.get(ev.ID); e != nil {
			e.fwd = rng.Intn(10)
		}
	}
	if tb.len() != 5 {
		t.Fatalf("len = %d, want 5", tb.len())
	}
}

func TestIDsMatching(t *testing.T) {
	tb := newEventTable(0)
	tb.insert(mkEvent(1, ".t0.t1", time.Minute), 0)
	tb.insert(mkEvent(2, ".t0.t1.t2", time.Minute), 0)
	tb.insert(mkEvent(3, ".x", time.Minute), 0)
	tb.insert(mkEvent(4, ".t0.t1", time.Second), 0) // expires at 1s

	subs := topic.NewSet(topic.MustParse(".t0.t1"))
	ids := tb.idsMatching(subs, 30*time.Second)
	if len(ids) != 2 {
		t.Fatalf("ids = %v, want events 1 and 2", ids)
	}
	if ids[0].Lo != 1 || ids[1].Lo != 2 {
		t.Fatalf("ids unsorted or wrong: %v", ids)
	}

	// Sub-topic subscriber sees only the subtree.
	deep := topic.NewSet(topic.MustParse(".t0.t1.t2"))
	ids = tb.idsMatching(deep, 0)
	if len(ids) != 1 || ids[0].Lo != 2 {
		t.Fatalf("deep ids = %v", ids)
	}

	// Overlapping subscriptions must not duplicate ids.
	both := topic.NewSet(topic.MustParse(".t0"), topic.MustParse(".t0.t1"))
	if got := tb.idsMatching(both, 0); len(got) != 3 {
		t.Fatalf("dedup failed: %v", got)
	}
}

func TestValidEntriesSortedAndFiltered(t *testing.T) {
	tb := newEventTable(0)
	tb.insert(mkEvent(3, ".a", time.Minute), 0)
	tb.insert(mkEvent(1, ".a", time.Minute), 0)
	tb.insert(mkEvent(2, ".a", time.Second), 0)
	got := tb.validEntries(30 * time.Second)
	if len(got) != 2 {
		t.Fatalf("valid = %d, want 2", len(got))
	}
	// storedAt ties: ordered by id.
	if got[0].ev.ID.Lo != 3 && got[0].ev.ID.Lo != 1 {
		t.Fatalf("unexpected entry %v", got[0].ev.ID)
	}
}

func TestGarbageCollectEmptyTable(t *testing.T) {
	tb := newEventTable(1)
	if v := tb.garbageCollect(0); v != nil {
		t.Fatal("GC on empty table returned a victim")
	}
}

func TestRemoveAlsoPrunesTree(t *testing.T) {
	tb := newEventTable(0)
	ev := mkEvent(1, ".a.b", time.Minute)
	tb.insert(ev, 0)
	tb.remove(tb.get(ev.ID))
	if tb.has(ev.ID) || tb.len() != 0 {
		t.Fatal("remove left the entry indexed")
	}
	ids := tb.idsMatching(topic.NewSet(topic.MustParse(".a")), 0)
	if len(ids) != 0 {
		t.Fatalf("tree still lists removed event: %v", ids)
	}
}

func TestGCDeterministicTieBreak(t *testing.T) {
	run := func() uint64 {
		tb := newEventTable(3)
		for i := uint64(1); i <= 3; i++ {
			tb.insert(mkEvent(i, ".a", time.Minute), 0)
		}
		v := tb.garbageCollect(time.Second)
		return v.ev.ID.Lo
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("GC tie-break nondeterministic: %d vs %d", a, b)
	}
	if a != 1 {
		t.Fatalf("tie should break on lowest id, got %d", a)
	}
}
