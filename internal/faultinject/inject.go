package faultinject

import (
	"cmp"
	"fmt"
	"sync/atomic"
	"time"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/trace"
)

// RDDArray is the slice of the sampler counter-array API a fault may
// touch; kvcache.ChaosArray is the same unnamed type.
type RDDArray = interface {
	K() int
	Corrupt(k int, mask uint32)
	Reset()
}

// Injector draws a Spec's sampler, latency and recompute faults, for the
// simulator and the server alike. Access stream i (a kvcache shard, or a
// simulated PDP's one stream) draws from an RNG seeded
// Seed ^ (i+1)·0x9E3779B97F4A7C15, and the recompute-time faults (stall,
// panic, PD bias) from one seeded Seed ^ 0x5EF5EF5E. Every access ticks
// one shared clock, which Until reads. Injector implements kvcache.Chaos;
// its caller serializes each stream's accesses (kvcache's shard lock) and
// the recomputes, so only the clock is atomic.
type Injector struct {
	spec  Spec
	rep   *Reporter
	rngs  []*trace.RNG // one per access stream
	rrng  *trace.RNG   // recompute-time faults
	clock atomic.Uint64
}

// NewInjector wires the spec's faults for streams access streams, counting
// and journaling each through rep. It returns nil, which injects nothing,
// when the spec has no policy or serve fault; install it in
// kvcache.Config.Chaos only when non-nil (a typed nil defeats its check).
func NewInjector(spec Spec, streams int, rep *Reporter) *Injector {
	if streams <= 0 || !spec.injects(Policy|Serve) {
		return nil
	}
	spec.StallMS, spec.SpikeMS = cmp.Or(spec.StallMS, 100), cmp.Or(spec.SpikeMS, 5)
	in := &Injector{spec: spec, rep: rep, rngs: make([]*trace.RNG, streams), rrng: trace.NewRNG(spec.Seed ^ 0x5EF5EF5E)}
	for i := range in.rngs {
		in.rngs[i] = trace.NewRNG(spec.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
	}
	return in
}

// Access implements kvcache.Chaos: one access of stream i, one tick of the
// clock. With the spec's probabilities it sleeps spike.ms (the caller holds
// the stream's lock), flips one of the low 16 bits of a random N_i of arr
// (an SRAM soft error) and zeroes arr mid-window, drawing in that order.
// arr is nil in LRU mode.
func (in *Injector) Access(i int, arr RDDArray) {
	if in == nil || i < 0 || i >= len(in.rngs) {
		return
	}
	t := in.clock.Add(1)
	if !in.spec.Active(t) {
		return
	}
	rng := in.rngs[i]
	if in.spec.LatencySpike > 0 && rng.Bernoulli(in.spec.LatencySpike) {
		in.rep.Record("latency.spike", t, fmt.Sprintf("shard %d lock held +%dms", i, in.spec.SpikeMS))
		time.Sleep(time.Duration(in.spec.SpikeMS) * time.Millisecond)
	}
	if arr == nil {
		return
	}
	if in.spec.CounterFlip > 0 && rng.Bernoulli(in.spec.CounterFlip) {
		k := rng.Intn(arr.K())
		bit := uint(rng.Intn(16))
		arr.Corrupt(k, 1<<bit)
		in.rep.Record("counter.flip", t, fmt.Sprintf("shard %d N_%d ^= 1<<%d", i, k, bit))
	}
	if in.spec.RDDZero > 0 && rng.Bernoulli(in.spec.RDDZero) {
		arr.Reset()
		in.rep.Record("rdd.zero", t, fmt.Sprintf("shard %d RDD zeroed mid-window", i))
	}
}

// Recompute implements kvcache.Chaos: called inside the PD-recompute
// critical section (seq is the 1-based recompute ordinal). A stall fires
// before a panic so a spec enabling both exercises the watchdog first.
func (in *Injector) Recompute(seq uint64) {
	if in == nil || !in.spec.Active(in.clock.Load()) {
		return
	}
	if in.spec.RecomputeStall > 0 && in.rrng.Bernoulli(in.spec.RecomputeStall) {
		in.rep.Record("recompute.stall", seq, fmt.Sprintf("recompute %d stalled %dms", seq, in.spec.StallMS))
		time.Sleep(time.Duration(in.spec.StallMS) * time.Millisecond)
	}
	if in.spec.RecomputePanic > 0 && in.rrng.Bernoulli(in.spec.RecomputePanic) {
		in.rep.Record("recompute.panic", seq, fmt.Sprintf("recompute %d panicked", seq))
		panic(&InjectedError{Site: "recompute.panic", Record: seq})
	}
}

// Perturb is core.PDP.SetPDPerturb's hook: it moves a recomputed PD by a
// uniform draw in [-pd.bias, +pd.bias] while the clock is inside the fault
// window (core clamps the result to [1, d_max]).
func (in *Injector) Perturb(pd int) int {
	t := in.clock.Load()
	if in.spec.PDBias <= 0 || !in.spec.Active(t) {
		return pd
	}
	d := in.rrng.Intn(2*in.spec.PDBias+1) - in.spec.PDBias
	if d != 0 {
		in.rep.Record("pd.perturb", t, fmt.Sprintf("pd %d%+d", pd, d))
	}
	return pd + d
}

// Monitor attaches the injector to a simulated dynamic PDP p as stream 0:
// Perturb hooks p's recomputes, and the returned monitor calls Access once
// per access, on its hit, insert or bypass event (an eviction belongs to
// the insert after it). It returns nil for a nil in or a static policy.
func (in *Injector) Monitor(p *core.PDP) cache.Monitor {
	if in == nil || p == nil || p.Sampler() == nil {
		return nil
	}
	if in.spec.PDBias > 0 {
		p.SetPDPerturb(in.Perturb)
	}
	return accessTick{in, p.Sampler().Array()}
}

type accessTick struct {
	in  *Injector
	arr RDDArray
}

func (m accessTick) Event(ev cache.Event) {
	if ev.Kind != cache.EvEvict {
		m.in.Access(0, m.arr)
	}
}
