// Package core implements the paper's frugal topic-based
// publish/subscribe protocol for mobile ad-hoc networks (Baehni, Chhabra,
// Guerraoui — Middleware 2005, Section 4).
//
// The protocol runs directly on a one-hop broadcast medium and goes
// through three phases:
//
//  1. Neighborhood detection: periodic heartbeats carry the node's
//     subscriptions and (optionally) its speed; nodes with overlapping
//     subscriptions exchange the identifiers of the valid events they
//     hold. The heartbeat period adapts to the average neighbor speed.
//  2. Dissemination: a node that knows a matching neighbor misses an
//     event broadcasts it after a back-off inversely proportional to the
//     number of events to send; overhearing the event for someone else
//     cancels one's own pending send.
//  3. Garbage collection: neighborhood entries expire after a multiple of
//     the heartbeat period; when the bounded event table is full, the
//     event minimizing val(e)/(fwd(e)+val(e)) is evicted (expired events
//     first).
//
// The protocol is transport-agnostic: it talks to the outside world only
// through the small proto.Scheduler and proto.Transport interfaces, so
// the same code runs on the discrete-event simulator (internal/netsim)
// and on real time (examples/inprocess).
//
// Concurrency contract: a Protocol instance is single-threaded. All entry
// points (Subscribe, Publish, HandleMessage, timer callbacks scheduled via
// the Scheduler) must be invoked serially. Wrap a Protocol in Safe for use
// from multiple goroutines.
package core
