package servefault

import (
	"fmt"
	"time"

	"pdp/internal/faultinject"
	"pdp/internal/kvcache"
	"pdp/internal/trace"
	"sync/atomic"
)

// Default fault durations when the spec enables a stall or spike without
// sizing it.
const (
	defaultStallMS = 100
	defaultSpikeMS = 5
)

// Injector drives a faultinject.Spec's serving-path faults against a
// live kvcache: per cache access it may flip a bit of the shard's RDD
// counters, zero the array, or sleep while holding the shard lock (the
// lock-hold watchdog's prey); per PD recomputation it may stall the
// critical section past the recompute watchdog or panic inside it. Each
// shard gets its own RNG stream seeded from Spec.Seed, and each fault is
// counted and journaled through the Reporter, so a chaos campaign is
// reproducible and auditable end to end.
//
// Injector implements kvcache.Chaos. Access for one shard runs under
// that shard's lock and Recompute under the cache's recompute lock, so
// each RNG stream is externally serialized; only the shared until-clock
// is atomic.
type Injector struct {
	spec    faultinject.Spec
	rep     *faultinject.Reporter
	rngs    []*trace.RNG // one per shard, serialized by the shard lock
	where   []string     // "shard i ", the prefix of that shard's fault details
	rrng    *trace.RNG   // recompute stream, serialized by the recompute lock
	clock   atomic.Uint64
	stallMS int
	spikeMS int
}

// NewInjector wires the spec's serving faults for a cache of the given
// shard count. It returns nil when the spec injects nothing on the
// serving path — callers install the result only when non-nil (a typed
// nil in Config.Chaos would defeat kvcache's nil check).
func NewInjector(spec faultinject.Spec, shards int, rep *faultinject.Reporter) *Injector {
	if shards <= 0 || !spec.ServeEnabled() {
		return nil
	}
	in := &Injector{
		spec:    spec,
		rep:     rep,
		rngs:    make([]*trace.RNG, shards),
		where:   make([]string, shards),
		rrng:    trace.NewRNG(spec.Seed ^ 0x5EF5EF5E),
		stallMS: spec.StallMS,
		spikeMS: spec.SpikeMS,
	}
	for i := range in.rngs {
		in.rngs[i] = trace.NewRNG(spec.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
		in.where[i] = fmt.Sprintf("shard %d ", i)
	}
	if in.stallMS <= 0 {
		in.stallMS = defaultStallMS
	}
	if in.spikeMS <= 0 {
		in.spikeMS = defaultSpikeMS
	}
	return in
}

// Access implements kvcache.Chaos: called once per cache operation under
// the shard lock. arr is the shard's live RDD array (nil in LRU mode).
func (in *Injector) Access(shard int, arr kvcache.ChaosArray) {
	if in == nil || shard < 0 || shard >= len(in.rngs) {
		return
	}
	t := in.clock.Add(1)
	if !in.spec.Active(t) {
		return
	}
	rng := in.rngs[shard]
	if in.spec.LatencySpike > 0 && rng.Bernoulli(in.spec.LatencySpike) {
		in.rep.Record("latency.spike", t,
			fmt.Sprintf("shard %d lock held +%dms", shard, in.spikeMS))
		time.Sleep(time.Duration(in.spikeMS) * time.Millisecond)
	}
	if arr == nil {
		return
	}
	in.spec.CorruptRDD(arr, rng, in.rep, t, in.where[shard])
}

// Recompute implements kvcache.Chaos: called inside the PD-recompute
// critical section (seq is the 1-based recompute ordinal). A stall fires
// before a panic so a spec enabling both exercises the watchdog first.
func (in *Injector) Recompute(seq uint64) {
	if in == nil || !in.spec.Active(in.clock.Load()) {
		return
	}
	if in.spec.RecomputeStall > 0 && in.rrng.Bernoulli(in.spec.RecomputeStall) {
		in.rep.Record("recompute.stall", seq,
			fmt.Sprintf("recompute %d stalled %dms", seq, in.stallMS))
		time.Sleep(time.Duration(in.stallMS) * time.Millisecond)
	}
	if in.spec.RecomputePanic > 0 && in.rrng.Bernoulli(in.spec.RecomputePanic) {
		in.rep.Record("recompute.panic", seq, fmt.Sprintf("recompute %d panicked", seq))
		panic(&faultinject.InjectedError{Site: "recompute.panic", Record: seq})
	}
}
