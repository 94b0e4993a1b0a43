// Package faultinject provides deterministic, seeded fault injectors for
// the PDP pipeline's seams — the trace stream, the RDD counter array, the
// recomputed PD and, on the serving path, the shard and recompute critical
// sections — plus the invariant checkers that turn a fault campaign into a
// graceful-degradation proof: the PD stays in [1, d_max], victim selection
// never panics, the hit rate under faults stays within a stated envelope
// of the clean run, and the PD re-converges after faults stop.
//
// The paper's hardware tolerates exactly these conditions by construction
// (a sampled RDD, saturating compressed counters, n_c-bit RPDs); this
// package injects them on purpose so the reproduction can prove the same
// robustness, with every fault journaled through internal/telemetry.
package faultinject

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Spec is a parsed fault-injection specification. The zero Spec injects
// nothing. Its textual grammar, the tools' -inject flag, is a
// comma-separated list of key=value items, one per entry of keys below;
// probabilities are in [0, 1]. Example:
//
//	-inject trace.corrupt=1e-4,counter.flip=1e-4,pd.bias=16,seed=7
type Spec struct {
	// Each field holds the value of one key; keys names it and says what
	// it injects. StallMS and SpikeMS default to 100 and 5 when zero.
	Seed                              uint64
	TraceCorrupt, TraceDup, TraceDrop float64
	TraceFail                         uint64
	CounterFlip, RDDZero              float64
	PDBias                            int
	RecomputePanic, RecomputeStall    float64
	StallMS                           int
	LatencySpike                      float64
	SpikeMS                           int
	Until                             uint64
}

// Path is a set of the injection paths that read a key.
type Path uint8

const (
	// Trace faults act on the records of a simulated trace stream
	// (pdpsim, repro).
	Trace Path = 1 << iota
	// Policy faults act on a simulated dynamic PDP, once per access
	// (single-core pdpsim, repro faultcamp).
	Policy
	// Serve faults act on a live kvcache, once per shard critical section
	// (pdpcached).
	Serve
)

// unit is a key's value type. A key of the units up to pdStep injects a
// fault; the others tune the faults the rest inject.
type unit uint8

const (
	prob   unit = iota // a probability in [0, 1], drawn per clock tick
	record             // a record ordinal (uint)
	pdStep             // a PD offset in accesses (non-negative int)
	millis             // a duration in milliseconds (non-negative int)
	seed               // an RNG seed (uint)
	ticks              // an injector clock tick (uint)
)

// key is one -inject key: its name, value type and the paths that read it.
type key struct {
	name  string
	unit  unit
	paths Path
	field func(*Spec) any // *float64, *uint64 or *int
}

// keys is the -inject key list: Parse, String, the unknown-key message,
// the *Enabled predicates and Check all read it.
var keys = []key{
	{"seed", seed, Trace | Policy | Serve, func(s *Spec) any { return &s.Seed }},        // injector RNG seed (default 1)
	{"trace.corrupt", prob, Trace, func(s *Spec) any { return &s.TraceCorrupt }},        // per record: flip one address bit
	{"trace.dup", prob, Trace, func(s *Spec) any { return &s.TraceDup }},                // per record: replay the previous one
	{"trace.drop", prob, Trace, func(s *Spec) any { return &s.TraceDrop }},              // per record: drop it
	{"trace.fail", record, Trace, func(s *Spec) any { return &s.TraceFail }},            // panic at record n
	{"counter.flip", prob, Policy | Serve, func(s *Spec) any { return &s.CounterFlip }}, // per access: flip a bit of a random N_i
	{"rdd.zero", prob, Policy | Serve, func(s *Spec) any { return &s.RDDZero }},         // per access: zero the RDD
	{"pd.bias", pdStep, Policy, func(s *Spec) any { return &s.PDBias }},                 // per recompute: PD +/- uniform k
	{"recompute.panic", prob, Serve, func(s *Spec) any { return &s.RecomputePanic }},    // per recompute: panic inside it
	{"recompute.stall", prob, Serve, func(s *Spec) any { return &s.RecomputeStall }},    // per recompute: sleep stall.ms
	{"stall.ms", millis, Serve, func(s *Spec) any { return &s.StallMS }},                // recompute stall (default 100)
	{"latency.spike", prob, Serve, func(s *Spec) any { return &s.LatencySpike }},        // per access: sleep spike.ms locked
	{"spike.ms", millis, Serve, func(s *Spec) any { return &s.SpikeMS }},                // latency spike (default 5)
	{"until", ticks, Trace | Policy | Serve, func(s *Spec) any { return &s.Until }},     // stop after n clock ticks (0 = never)
}

// set reports whether field, one of keys' fields, holds a non-zero value.
func set(field any) bool {
	switch v := field.(type) {
	case *float64:
		return *v > 0
	case *uint64:
		return *v > 0
	default:
		return *v.(*int) > 0
	}
}

// Active reports whether the injectors still fire at clock tick t (the
// until horizon).
func (s Spec) Active(t uint64) bool {
	return s.Until == 0 || t <= s.Until
}

// injects reports whether s sets a fault key that one of paths reads.
func (s Spec) injects(paths Path) bool {
	for _, k := range keys {
		if k.paths&paths != 0 && k.unit <= pdStep && set(k.field(&s)) {
			return true
		}
	}
	return false
}

// Enabled reports whether the spec injects any simulator fault.
func (s Spec) Enabled() bool { return s.injects(Trace | Policy) }

// TraceEnabled reports whether any trace-stream fault is configured.
func (s Spec) TraceEnabled() bool { return s.injects(Trace) }

// PolicyEnabled reports whether any sampler/PD fault is configured.
func (s Spec) PolicyEnabled() bool { return s.injects(Policy) }

// ServeEnabled reports whether any serving-path fault is configured,
// counter.flip and rdd.zero included: they act on the online RDD exactly
// as on the simulated one.
func (s Spec) ServeEnabled() bool { return s.injects(Serve) }

// Check returns an error naming the first key s sets that none of paths
// reads: a tool that injects only on paths would silently drop it.
func (s Spec) Check(paths Path) error {
	for _, k := range keys {
		if k.paths&paths == 0 && set(k.field(&s)) {
			return fmt.Errorf("faultinject: key %s is not read here (it acts on the %s path; this run injects on %s)",
				k.name, k.paths, paths)
		}
	}
	return nil
}

// String names the paths in p, joined by "+".
func (p Path) String() string {
	var names []string
	for i, n := range []string{"trace", "policy", "serve"} {
		if p&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, "+")
}

// String renders the spec in the -inject grammar (sorted items).
func (s Spec) String() string {
	var items []string
	for _, k := range keys {
		if f := k.field(&s); set(f) {
			items = append(items, fmt.Sprintf("%s=%v", k.name, reflect.ValueOf(f).Elem()))
		}
	}
	sort.Strings(items)
	return strings.Join(items, ",")
}

// Parse parses the -inject grammar. An empty string yields the zero Spec.
func Parse(text string) (Spec, error) {
	var s Spec
	for _, item := range strings.Split(text, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, val, ok := strings.Cut(item, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultinject: %q is not key=value", item)
		}
		name, val = strings.TrimSpace(name), strings.TrimSpace(val)
		i := slices.IndexFunc(keys, func(k key) bool { return k.name == name })
		if i < 0 {
			names := make([]string, len(keys))
			for j, k := range keys {
				names[j] = k.name
			}
			return Spec{}, fmt.Errorf("faultinject: unknown key %q (keys: %s)", name, strings.Join(names, ", "))
		}
		var err error
		switch v := keys[i].field(&s).(type) {
		case *float64:
			*v, err = strconv.ParseFloat(val, 64)
			if err != nil || !(*v >= 0 && *v <= 1) { // NaN fails both
				return Spec{}, fmt.Errorf("faultinject: %s=%q is not a probability in [0,1]", name, val)
			}
		case *uint64:
			if *v, err = strconv.ParseUint(val, 10, 64); err != nil {
				return Spec{}, fmt.Errorf("faultinject: %s=%q is not a uint", name, val)
			}
		case *int:
			if *v, err = strconv.Atoi(val); err != nil || *v < 0 {
				return Spec{}, fmt.Errorf("faultinject: %s=%q is not a non-negative int", name, val)
			}
		}
	}
	return s, nil
}
