package core

import (
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

// neighbor is one row of the paper's neighborhood table (Figure 2):
// identity, subscriptions, presumed received events, speed and store time.
// The presumed-received set is a bitset over the owning protocol's event
// slots (see slotIntern), so the send-set test per (event, neighbor) is
// one bit read instead of a hashed lookup.
type neighbor struct {
	id       event.NodeID
	subs     *topic.Set
	speed    float64 // m/s, negative = unknown
	has      []uint64
	storedAt time.Duration
}

func (n *neighbor) knows(slot int32) bool {
	w := int(slot >> 6)
	return w < len(n.has) && n.has[w]&(1<<(uint(slot)&63)) != 0
}

func (n *neighbor) markHas(slot int32) {
	w := int(slot >> 6)
	if w >= len(n.has) {
		n.has = append(n.has, make([]uint64, w+1-len(n.has))...)
	}
	n.has[w] |= 1 << (uint(slot) & 63)
}

// neighborhood is the dynamic one-hop neighbor table. Only neighbors with
// overlapping subscriptions are stored (paper Section 3, phase 1). Rows
// live in a slice kept sorted by id: the protocol iterates the table far
// more often than it inserts (every heartbeat, back-off expiry and send
// set walks it), and in a dense metro cell the per-call map-iterate+sort
// of a rebuild dominated the city-sweep profile. A lookup map indexes
// the same rows for the O(1) refresh path.
type neighborhood struct {
	max  int // 0 = unbounded
	m    map[event.NodeID]*neighbor
	rows []*neighbor // sorted by id; the canonical iteration order
}

func newNeighborhood(max int) *neighborhood {
	return &neighborhood{max: max, m: make(map[event.NodeID]*neighbor)}
}

func (nh *neighborhood) len() int { return len(nh.rows) }

func (nh *neighborhood) get(id event.NodeID) *neighbor { return nh.m[id] }

// rowIndex returns the position of id in rows (or where it would insert).
func (nh *neighborhood) rowIndex(id event.NodeID) int {
	return sort.Search(len(nh.rows), func(i int) bool { return nh.rows[i].id >= id })
}

func (nh *neighborhood) insertRow(n *neighbor) {
	i := nh.rowIndex(n.id)
	nh.rows = append(nh.rows, nil)
	copy(nh.rows[i+1:], nh.rows[i:])
	nh.rows[i] = n
}

func (nh *neighborhood) deleteRow(id event.NodeID) {
	i := nh.rowIndex(id)
	if i < len(nh.rows) && nh.rows[i].id == id {
		copy(nh.rows[i:], nh.rows[i+1:])
		nh.rows[len(nh.rows)-1] = nil
		nh.rows = nh.rows[:len(nh.rows)-1]
	}
}

// upsert implements UPDATENEIGHBORINFO: insert or refresh a neighbor row,
// reporting whether the neighbor is new and whether its subscriptions
// changed. The presumed-received set survives refreshes. When the table
// is full, the stalest row is evicted to admit the new one.
func (nh *neighborhood) upsert(id event.NodeID, subs *topic.Set, speed float64, now time.Duration) (isNew, subsChanged bool) {
	if n, ok := nh.m[id]; ok {
		subsChanged = !n.subs.Equal(subs)
		n.subs = subs
		n.speed = speed
		n.storedAt = now
		return false, subsChanged
	}
	if nh.max > 0 && len(nh.rows) >= nh.max {
		nh.evictStalest()
	}
	n := &neighbor{id: id, subs: subs, speed: speed, storedAt: now}
	nh.m[id] = n
	nh.insertRow(n)
	return true, false
}

func (nh *neighborhood) evictStalest() {
	var victim *neighbor
	for _, n := range nh.rows {
		if victim == nil || n.storedAt < victim.storedAt {
			victim = n // id ascending: first minimum wins ties
		}
	}
	if victim != nil {
		delete(nh.m, victim.id)
		nh.deleteRow(victim.id)
	}
}

func (nh *neighborhood) remove(id event.NodeID) {
	if _, ok := nh.m[id]; ok {
		delete(nh.m, id)
		nh.deleteRow(id)
	}
}

// gc implements the neighborhoodGC task (paper Figure 10): drop rows not
// refreshed within ngcDelay. It returns the number removed.
func (nh *neighborhood) gc(now, ngcDelay time.Duration) int {
	kept := nh.rows[:0]
	for _, n := range nh.rows {
		if now-ngcDelay > n.storedAt {
			delete(nh.m, n.id)
		} else {
			kept = append(kept, n)
		}
	}
	removed := len(nh.rows) - len(kept)
	for i := len(kept); i < len(nh.rows); i++ {
		nh.rows[i] = nil
	}
	nh.rows = kept
	return removed
}

// sorted returns the neighbor rows ordered by id for deterministic
// iteration. The returned slice is the table's live backing array:
// callers may read rows (and mutate row contents, e.g. markHas) but must
// not hold it across table mutations.
func (nh *neighborhood) sorted() []*neighbor {
	return nh.rows
}

// avgSpeed implements AVERAGESPEED over neighbors reporting a known
// speed; ok is false when no information is available.
func (nh *neighborhood) avgSpeed(ownSpeed float64) (avg float64, ok bool) {
	sum, n := 0.0, 0
	if ownSpeed >= 0 {
		sum, n = ownSpeed, 1
	}
	for _, nb := range nh.sorted() {
		if nb.speed >= 0 {
			sum += nb.speed
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
