// Package servefault is the serving path's robustness kit: the
// concurrency-limited admission gate that sheds load instead of queueing
// unboundedly (overload protection), the seeded chaos injector that
// drives kvcache's fault seams for reproducible chaos campaigns, and the
// crash-safe cache snapshot I/O behind warm restarts. kvserver wires the
// pieces together; this package keeps them testable without an HTTP
// stack.
package servefault

import (
	"context"
	"errors"
	"time"

	"pdp/internal/telemetry"
)

// ErrShed reports a request refused by the admission gate: the gate was
// full and the request carried no deadline to wait under. HTTP maps it
// to 503 + Retry-After.
var ErrShed = errors.New("servefault: request shed, gate full")

// ErrDeadline reports a request whose deadline expired while it was
// queued at the gate. HTTP maps it to 504.
var ErrDeadline = errors.New("servefault: deadline expired while queued")

// Gate is a concurrency-limited admission gate: at most limit requests
// are in flight at once. A request arriving at a full gate is shed
// immediately when it has no deadline, and otherwise waits until a slot
// frees or the deadline expires — bounded queueing, never unbounded. A
// nil *Gate admits everything (the ungated configuration).
type Gate struct {
	sem        chan struct{}
	retryAfter time.Duration
	journal    *telemetry.Journal
	mShed      *telemetry.Counter
	mDeadline  *telemetry.Counter
}

// NewGate builds a gate admitting at most limit concurrent requests;
// retryAfter is the backoff hint shed responses should carry. A limit
// of 0 or less returns nil — the gate that admits everything — but the
// shed counters are still registered so they surface on /metrics at 0.
// A real gate also publishes its occupancy as a view: the
// http.gate_in_flight and http.gate_max_inflight gauges.
func NewGate(limit int, retryAfter time.Duration, reg *telemetry.Registry, journal *telemetry.Journal) *Gate {
	mShed := reg.Counter("http.shed")
	mDeadline := reg.Counter("http.deadline_timeout")
	if limit <= 0 {
		return nil
	}
	g := &Gate{
		sem:        make(chan struct{}, limit),
		retryAfter: retryAfter,
		journal:    journal,
		mShed:      mShed,
		mDeadline:  mDeadline,
	}
	reg.View(func(m telemetry.Samples) {
		m.Gauge("http.gate_in_flight", float64(g.InFlight()))
		m.Gauge("http.gate_max_inflight", float64(limit))
	})
	return g
}

// RetryAfter returns the configured shed backoff hint.
func (g *Gate) RetryAfter() time.Duration {
	if g == nil {
		return 0
	}
	return g.retryAfter
}

// InFlight returns the number of requests currently holding a slot.
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	return len(g.sem)
}

// Enter claims a slot, blocking no longer than ctx's deadline. It
// returns nil when the request is admitted (the caller must Exit),
// ErrShed when the gate is full and ctx carries no deadline, and
// ErrDeadline when ctx expired while queued. route and reqID label the
// journal record.
func (g *Gate) Enter(ctx context.Context, route, reqID string) error {
	if g == nil {
		return nil
	}
	select {
	case g.sem <- struct{}{}:
		return nil
	default:
	}
	if _, ok := ctx.Deadline(); !ok {
		g.mShed.Inc()
		g.journal.Append(telemetry.ShedRecord{
			Kind: telemetry.KindShed, Route: route, Reason: "overload", RequestID: reqID,
		})
		return ErrShed
	}
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		g.mDeadline.Inc()
		g.journal.Append(telemetry.ShedRecord{
			Kind: telemetry.KindShed, Route: route, Reason: "deadline", RequestID: reqID,
		})
		return ErrDeadline
	}
}

// Exit releases the slot claimed by a successful Enter.
func (g *Gate) Exit() {
	if g == nil {
		return
	}
	<-g.sem
}
