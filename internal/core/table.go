package core

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

// tableEntry is one stored event with its local bookkeeping (paper
// Figure 3: id, validity, counter, topic, data).
type tableEntry struct {
	ev        event.Event
	expiresAt time.Duration // local absolute expiry
	fwd       int           // times this node sent/forwarded the event
	storedAt  time.Duration
	slot      int32 // the event id's slot in the table's intern
}

func (e *tableEntry) valid(now time.Duration) bool { return now < e.expiresAt }

// remaining returns the validity left at instant now.
func (e *tableEntry) remaining(now time.Duration) time.Duration {
	r := e.expiresAt - now
	if r < 0 {
		r = 0
	}
	return r
}

// gcScore implements the paper's Equation 1: gc(e) = val(e)/(fwd(e)+val(e))
// with val expressed in seconds. Lower scores are evicted first, so an
// event with a long validity that has been forwarded many times goes
// before a short-lived event that was never propagated.
func (e *tableEntry) gcScore() float64 {
	val := e.ev.Validity.Seconds()
	return val / (float64(e.fwd) + val)
}

// slotIntern maps each event id a protocol stores or is told a neighbor
// holds to a dense slot: the index of the id's bit in every neighbor's
// presumed-received bitset and of its entry in the event table. Slots
// are never reused, so the next slot is the intern's size. An id keeps
// its slot when its event is evicted and received again, when a
// neighbor announces it before the event is stored, and when a
// crash-recovered publisher re-issues it, so every bit already set for
// the id keeps answering for it.
type slotIntern map[event.ID]int32

// slot returns id's slot, assigning the next one on first sight.
func (si slotIntern) slot(id event.ID) int32 {
	s, ok := si[id]
	if !ok {
		s = int32(len(si))
		si[id] = s
	}
	return s
}

// eventTable stores received/published events organized by topic (paper
// Figure 3), with capacity-triggered garbage collection. It owns its
// protocol's slot intern. bySlot indexes entries by slot; order holds
// every entry sorted by olderID, the deterministic iteration order of
// validEntries and of the send set.
type eventTable struct {
	cap    int // 0 = unbounded
	policy GCPolicy
	rng    *rand.Rand // for GCRandom; may be nil otherwise
	slots  slotIntern
	bySlot []*tableEntry
	order  []*tableEntry
	tree   topic.Tree[*tableEntry]
}

func newEventTable(capacity int) *eventTable {
	return &eventTable{cap: capacity, slots: make(slotIntern)}
}

func (t *eventTable) len() int { return len(t.order) }

func (t *eventTable) has(id event.ID) bool { return t.get(id) != nil }

func (t *eventTable) get(id event.ID) *tableEntry {
	if s, ok := t.slots[id]; ok && int(s) < len(t.bySlot) {
		return t.bySlot[s]
	}
	return nil
}

// insert stores ev, evicting via the GC policy when the table is full.
// It returns the evicted entry, if any.
func (t *eventTable) insert(ev event.Event, now time.Duration) *tableEntry {
	var evicted *tableEntry
	if t.cap > 0 && len(t.order) >= t.cap {
		evicted = t.garbageCollect(now)
	}
	e := &tableEntry{
		ev:        ev,
		expiresAt: now + ev.Remaining,
		storedAt:  now,
		slot:      t.slots.slot(ev.ID),
	}
	if int(e.slot) >= len(t.bySlot) {
		t.bySlot = append(t.bySlot, make([]*tableEntry, int(e.slot)+1-len(t.bySlot))...)
	}
	if old := t.bySlot[e.slot]; old != nil {
		// A crash-recovered publisher can re-issue a stored id. The
		// new entry takes over the slot and the order position; the
		// old one stays in the topic tree, where idsMatching's per-id
		// dedup hides it.
		t.deleteOrdered(old)
	}
	t.bySlot[e.slot] = e
	i := len(t.order)
	for i > 0 && olderID(e, t.order[i-1]) {
		i--
	}
	t.order = slices.Insert(t.order, i, e)
	t.tree.Add(ev.Topic, e)
	return evicted
}

// garbageCollect removes and returns one entry following the paper's
// Figure 10: an expired event if one exists, otherwise the entry with the
// lowest gc score. Ties break on older storedAt, then on id, keeping runs
// deterministic. GCFIFO/GCRandom are ablation policies.
func (t *eventTable) garbageCollect(now time.Duration) *tableEntry {
	var victim *tableEntry
	for _, e := range t.order {
		if !e.valid(now) {
			// An expired entry displaces any valid victim; among
			// expired entries the tie-break keeps runs deterministic.
			if victim == nil || victim.valid(now) || olderID(e, victim) {
				victim = e
			}
			continue
		}
		if victim != nil && !victim.valid(now) {
			continue // expired victims take precedence
		}
		if victim == nil || t.lessByPolicy(e, victim) {
			victim = e
		}
	}
	if victim != nil && t.policy == GCRandom && victim.valid(now) && t.rng != nil {
		victim = t.randomValid(now, victim)
	}
	if victim == nil {
		return nil
	}
	t.remove(victim)
	return victim
}

// lessByPolicy orders valid entries by eviction priority under the active
// policy.
func (t *eventTable) lessByPolicy(a, b *tableEntry) bool {
	if t.policy == GCFIFO {
		return olderID(a, b)
	}
	return less(a, b)
}

// randomValid picks a uniform random valid entry (GCRandom).
func (t *eventTable) randomValid(now time.Duration, fallback *tableEntry) *tableEntry {
	valid := t.validEntries(now)
	if len(valid) == 0 {
		return fallback
	}
	return valid[t.rng.Intn(len(valid))]
}

// less orders valid entries by eviction priority.
func less(a, b *tableEntry) bool {
	as, bs := a.gcScore(), b.gcScore()
	if as != bs {
		return as < bs
	}
	return olderID(a, b)
}

func olderID(a, b *tableEntry) bool {
	if a.storedAt != b.storedAt {
		return a.storedAt < b.storedAt
	}
	return a.ev.ID.Less(b.ev.ID)
}

func (t *eventTable) remove(e *tableEntry) {
	t.bySlot[e.slot] = nil
	t.deleteOrdered(e)
	t.tree.RemoveFunc(e.ev.Topic, func(v *tableEntry) bool { return v == e })
}

// deleteOrdered removes e from order, found by binary search: olderID
// is a strict total order over stored entries.
func (t *eventTable) deleteOrdered(e *tableEntry) {
	i := sort.Search(len(t.order), func(i int) bool { return !olderID(t.order[i], e) })
	t.order = slices.Delete(t.order, i, i+1)
}

// validEntries returns the still-valid entries in olderID order (stable
// iteration keeps outgoing messages deterministic).
func (t *eventTable) validEntries(now time.Duration) []*tableEntry {
	out := make([]*tableEntry, 0, len(t.order))
	for _, e := range t.order {
		if e.valid(now) {
			out = append(out, e)
		}
	}
	return out
}

// idsMatching implements the paper's GETEVENTSIDS: identifiers of valid
// stored events whose topics are covered by subs. The topic tree prunes
// the walk to the relevant subtrees.
func (t *eventTable) idsMatching(subs *topic.Set, now time.Duration) []event.ID {
	seen := make(map[event.ID]bool)
	var out []event.ID
	for _, sub := range subs.Topics() {
		t.tree.WalkSubtree(sub, func(_ topic.Topic, e *tableEntry) bool {
			if e.valid(now) && !seen[e.ev.ID] {
				seen[e.ev.ID] = true
				out = append(out, e.ev.ID)
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
