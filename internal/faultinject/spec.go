// Package faultinject provides deterministic, seeded fault injectors for
// the PDP pipeline's seams — the trace stream, the tracefile encoding, the
// RDD counter array, and the recomputed PD — plus the invariant checkers
// that turn a fault campaign into a graceful-degradation proof: the PD
// stays in [1, d_max], victim selection never panics, the hit rate under
// faults stays within a stated envelope of the clean run, and the PD
// re-converges after faults stop.
//
// The paper's hardware tolerates exactly these conditions by construction
// (a sampled RDD, saturating compressed counters, n_c-bit RPDs); this
// package injects them on purpose so the reproduction can prove the same
// robustness, with every fault journaled through internal/telemetry.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pdp/internal/trace"
)

// Spec is a parsed fault-injection specification. The zero Spec injects
// nothing. The textual grammar (the CLIs' -inject flag) is a
// comma-separated list of key=value items:
//
//	seed=<uint>          injector RNG seed (default 1)
//	trace.corrupt=<p>    per record: flip one random address bit
//	trace.dup=<p>        per record: replay the previous record
//	trace.drop=<p>       per record: drop the record
//	trace.fail=<n>       panic with an injected error at record n (0 = never)
//	counter.flip=<p>     per access: flip one random bit of a random N_i
//	rdd.zero=<p>         per access: zero the RDD counter array mid-window
//	pd.bias=<k>          perturb each recomputed PD by a uniform +/-k
//	recompute.panic=<p>  per PD recomputation: panic inside the recompute
//	                     critical section (serving path; the breaker must
//	                     absorb it and degrade to LRU)
//	recompute.stall=<p>  per PD recomputation: stall the critical section
//	                     for stall.ms, tripping the recompute watchdog
//	stall.ms=<n>         recompute stall duration in milliseconds (default
//	                     100)
//	latency.spike=<p>    per cache access: sleep spike.ms while holding the
//	                     shard lock (the lock-hold watchdog's prey)
//	spike.ms=<n>         shard-latency spike duration in milliseconds
//	                     (default 5)
//	until=<n>            stop injecting after n injector-clock ticks
//	                     (records for trace faults, accesses for policy
//	                     faults; 0 = whole run) — makes PD re-convergence
//	                     after a fault burst observable
//
// Probabilities are in [0, 1]. Example:
//
//	-inject trace.corrupt=1e-4,counter.flip=1e-4,pd.bias=16,seed=7
type Spec struct {
	// Seed fixes the injector's random stream (0 is remapped by trace.RNG).
	Seed uint64
	// TraceCorrupt, TraceDup, TraceDrop are per-record probabilities of
	// address-bit corruption, duplication, and loss.
	TraceCorrupt, TraceDup, TraceDrop float64
	// TraceFail, when positive, injects a panic at the TraceFail-th record
	// (a mid-stream generator error the supervisor must absorb).
	TraceFail uint64
	// CounterFlip is the per-access probability of flipping a random bit of
	// a random N_i RDD counter; RDDZero the per-access probability of
	// zeroing the whole array mid-window.
	CounterFlip, RDDZero float64
	// PDBias, when positive, perturbs every recomputed PD by a uniform
	// value in [-PDBias, +PDBias] (clamped by core to [1, d_max]).
	PDBias int
	// RecomputePanic and RecomputeStall are per-recomputation probabilities
	// of panicking inside, or stalling, the PD recompute critical section
	// (serving path); StallMS is the stall duration in milliseconds
	// (default 100 when a stall is configured).
	RecomputePanic, RecomputeStall float64
	StallMS                        int
	// LatencySpike is the per-access probability of sleeping SpikeMS
	// milliseconds while holding a cache shard lock (default 5ms).
	LatencySpike float64
	SpikeMS      int
	// Until, when positive, deactivates every injector after Until ticks
	// of its own clock (records for the trace wrapper, monitored accesses
	// for the PDP injector); faults then stop and the system can be
	// observed re-converging.
	Until uint64
}

// Active reports whether the injectors still fire at clock tick t (the
// until horizon).
func (s Spec) Active(t uint64) bool {
	return s.Until == 0 || t <= s.Until
}

// CorruptRDD runs the spec's two RDD faults for one access at an injector's
// clock tick t, drawing from rng in this order: with probability CounterFlip
// flip one of the low 16 bits of a random N_i of arr (an SRAM soft error),
// then with probability RDDZero zero the array mid-window. PDPInjector and
// servefault.Injector both call it, so a seed replays on either path; where
// prefixes the journaled detail (the serving injector names the shard).
func (s Spec) CorruptRDD(arr interface {
	K() int
	Corrupt(k int, mask uint32)
	Reset()
}, rng *trace.RNG, rep *Reporter, t uint64, where string) {
	if s.CounterFlip > 0 && rng.Bernoulli(s.CounterFlip) {
		k := rng.Intn(arr.K())
		bit := uint(rng.Intn(16))
		arr.Corrupt(k, 1<<bit)
		rep.Record("counter.flip", t, fmt.Sprintf("%sN_%d ^= 1<<%d", where, k, bit))
	}
	if s.RDDZero > 0 && rng.Bernoulli(s.RDDZero) {
		arr.Reset()
		rep.Record("rdd.zero", t, where+"RDD zeroed mid-window")
	}
}

// Enabled reports whether the spec injects anything.
func (s Spec) Enabled() bool {
	return s.TraceEnabled() || s.PolicyEnabled()
}

// TraceEnabled reports whether any trace-stream fault is configured.
func (s Spec) TraceEnabled() bool {
	return s.TraceCorrupt > 0 || s.TraceDup > 0 || s.TraceDrop > 0 || s.TraceFail > 0
}

// PolicyEnabled reports whether any sampler/PD fault is configured.
func (s Spec) PolicyEnabled() bool {
	return s.CounterFlip > 0 || s.RDDZero > 0 || s.PDBias > 0
}

// ServeEnabled reports whether any serving-path fault is configured: the
// kvcache chaos injector fires on these plus the sampler faults (which
// apply to the online RDD exactly as to the simulated one).
func (s Spec) ServeEnabled() bool {
	return s.RecomputePanic > 0 || s.RecomputeStall > 0 || s.LatencySpike > 0 ||
		s.CounterFlip > 0 || s.RDDZero > 0
}

// String renders the spec in the -inject grammar (stable item order).
func (s Spec) String() string {
	var items []string
	add := func(k string, v float64) {
		if v > 0 {
			items = append(items, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("trace.corrupt", s.TraceCorrupt)
	add("trace.dup", s.TraceDup)
	add("trace.drop", s.TraceDrop)
	if s.TraceFail > 0 {
		items = append(items, fmt.Sprintf("trace.fail=%d", s.TraceFail))
	}
	add("counter.flip", s.CounterFlip)
	add("rdd.zero", s.RDDZero)
	if s.PDBias > 0 {
		items = append(items, fmt.Sprintf("pd.bias=%d", s.PDBias))
	}
	add("recompute.panic", s.RecomputePanic)
	add("recompute.stall", s.RecomputeStall)
	if s.StallMS > 0 {
		items = append(items, fmt.Sprintf("stall.ms=%d", s.StallMS))
	}
	add("latency.spike", s.LatencySpike)
	if s.SpikeMS > 0 {
		items = append(items, fmt.Sprintf("spike.ms=%d", s.SpikeMS))
	}
	if s.Until > 0 {
		items = append(items, fmt.Sprintf("until=%d", s.Until))
	}
	if s.Seed != 0 {
		items = append(items, fmt.Sprintf("seed=%d", s.Seed))
	}
	sort.Strings(items)
	return strings.Join(items, ",")
}

// Parse parses the -inject grammar. An empty string yields the zero Spec.
func Parse(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, item := range strings.Split(text, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultinject: %q is not key=value", item)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		prob := func(dst *float64) error {
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN fails both
				return fmt.Errorf("faultinject: %s=%q is not a probability in [0,1]", key, val)
			}
			*dst = p
			return nil
		}
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("faultinject: seed=%q is not a uint", val)
			}
		case "trace.corrupt":
			err = prob(&s.TraceCorrupt)
		case "trace.dup":
			err = prob(&s.TraceDup)
		case "trace.drop":
			err = prob(&s.TraceDrop)
		case "trace.fail":
			s.TraceFail, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("faultinject: trace.fail=%q is not a uint", val)
			}
		case "counter.flip":
			err = prob(&s.CounterFlip)
		case "rdd.zero":
			err = prob(&s.RDDZero)
		case "pd.bias":
			var k int
			k, err = strconv.Atoi(val)
			if err != nil || k < 0 {
				err = fmt.Errorf("faultinject: pd.bias=%q is not a non-negative int", val)
			} else {
				s.PDBias = k
			}
		case "recompute.panic":
			err = prob(&s.RecomputePanic)
		case "recompute.stall":
			err = prob(&s.RecomputeStall)
		case "stall.ms":
			var n int
			n, err = strconv.Atoi(val)
			if err != nil || n < 0 {
				err = fmt.Errorf("faultinject: stall.ms=%q is not a non-negative int", val)
			} else {
				s.StallMS = n
			}
		case "latency.spike":
			err = prob(&s.LatencySpike)
		case "spike.ms":
			var n int
			n, err = strconv.Atoi(val)
			if err != nil || n < 0 {
				err = fmt.Errorf("faultinject: spike.ms=%q is not a non-negative int", val)
			} else {
				s.SpikeMS = n
			}
		case "until":
			s.Until, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("faultinject: until=%q is not a uint", val)
			}
		default:
			return Spec{}, fmt.Errorf("faultinject: unknown key %q (keys: seed, trace.corrupt, trace.dup, trace.drop, trace.fail, counter.flip, rdd.zero, pd.bias, recompute.panic, recompute.stall, stall.ms, latency.spike, spike.ms, until)", key)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	return s, nil
}
