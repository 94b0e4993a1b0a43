package faultinject

import (
	"fmt"

	"pdp/internal/trace"
	"pdp/internal/workload"
)

// addrBits is the address-bit range corruption draws from: bits 0..33
// cover the byte offset, set index and low tag bits of the repository's
// geometries, so flips hit every structural field of the address.
const addrBits = 34

// faultGen wraps a trace.Generator with record-level fault injection.
type faultGen struct {
	g    trace.Generator
	spec Spec
	seed uint64
	rng  *trace.RNG
	rep  *Reporter
	prev trace.Access
	have bool
	n    uint64 // records emitted
}

// WrapGenerator wraps g with the spec's trace faults, deterministic in
// seed (derived from spec.Seed so distinct generators in one run draw
// distinct streams). With no trace faults configured it returns g
// unchanged. Faults are reported to rep (nil just injects silently).
func WrapGenerator(g trace.Generator, spec Spec, seed uint64, rep *Reporter) trace.Generator {
	if !spec.TraceEnabled() {
		return g
	}
	s := spec.Seed ^ seed ^ 0xFA17FA17
	return &faultGen{g: g, spec: spec, seed: s, rng: trace.NewRNG(s), rep: rep}
}

// Name implements trace.Generator.
func (f *faultGen) Name() string { return f.g.Name() + "+faults" }

// Reset implements trace.Generator, restoring the injector's random
// stream so the faulty trace replays bit-identically.
func (f *faultGen) Reset() {
	f.g.Reset()
	f.rng = trace.NewRNG(f.seed)
	f.prev, f.have, f.n = trace.Access{}, false, 0
}

// Next implements trace.Generator.
func (f *faultGen) Next() trace.Access {
	f.n++
	if !f.spec.Active(f.n) {
		return f.g.Next()
	}
	if f.spec.TraceFail > 0 && f.n == f.spec.TraceFail {
		f.rep.Record("trace.fail", f.n, "injected mid-stream generator failure")
		panic(&InjectedError{Site: "trace.fail", Record: f.n})
	}
	if f.have && f.spec.TraceDup > 0 && f.rng.Bernoulli(f.spec.TraceDup) {
		f.rep.Record("trace.dup", f.n, "")
		return f.prev
	}
	a := f.g.Next()
	for f.spec.TraceDrop > 0 && f.rng.Bernoulli(f.spec.TraceDrop) {
		f.rep.Record("trace.drop", f.n, "")
		a = f.g.Next()
	}
	if f.spec.TraceCorrupt > 0 && f.rng.Bernoulli(f.spec.TraceCorrupt) {
		bit := uint(f.rng.Intn(addrBits))
		a.Addr ^= 1 << bit
		f.rep.Record("trace.corrupt", f.n, fmt.Sprintf("flipped addr bit %d", bit))
	}
	f.prev, f.have = a, true
	return a
}

// Fill implements trace.Filler as len(buf) calls of Next, so every record
// draws its faults exactly as Next does. A trace.fail inside the block
// panics before Fill returns: the records drawn before it are never seen
// by a caller that reads whole blocks.
func (f *faultGen) Fill(buf []trace.Access) {
	for i := range buf {
		buf[i] = f.Next()
	}
}

// WrapBenchmark returns b with its generator wrapped by the spec's trace
// faults (see WrapGenerator); the clean benchmark is untouched.
func WrapBenchmark(b workload.Benchmark, spec Spec, rep *Reporter) workload.Benchmark {
	if !spec.TraceEnabled() {
		return b
	}
	build := b.Build
	b.Build = func(sets int, base, seed uint64) trace.Generator {
		return WrapGenerator(build(sets, base, seed), spec, seed^base*0x9E37, rep)
	}
	return b
}
