package faultinject

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/trace"
)

// TestEachToolsKeys is the -inject contract of every tool: the keys it
// reads are accepted, and every other key is refused by name.
func TestEachToolsKeys(t *testing.T) {
	const (
		seedUntil = "seed until "
		traceKeys = "trace.corrupt trace.dup trace.drop trace.fail "
		rddKeys   = "counter.flip rdd.zero "
	)
	if len(keys) != 14 {
		t.Fatalf("%d keys, want the 14 of the grammar", len(keys))
	}
	for _, tc := range []struct {
		tool  string
		paths Path
		reads string
	}{
		{"pdpcached", Serve, seedUntil + rddKeys + "recompute.panic recompute.stall stall.ms latency.spike spike.ms"},
		{"pdpsim", Trace | Policy, seedUntil + traceKeys + rddKeys + "pd.bias"},
		{"pdpsim -cores N>1", Trace, seedUntil + traceKeys},
		{"repro", Trace, seedUntil + traceKeys},
		{"repro ... faultcamp", Trace | Policy, seedUntil + traceKeys + rddKeys + "pd.bias"},
	} {
		reads := strings.Fields(tc.reads)
		for _, k := range keys {
			val := "3"
			if k.unit == prob {
				val = "0.5"
			}
			s, err := Parse(k.name + "=" + val)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Check(tc.paths)
			switch {
			case slices.Contains(reads, k.name) && err != nil:
				t.Errorf("%s refuses %s: %v", tc.tool, k.name, err)
			case !slices.Contains(reads, k.name) && err == nil:
				t.Errorf("%s accepts %s, which it never reads", tc.tool, k.name)
			case err != nil && !strings.Contains(err.Error(), "key "+k.name+" "):
				t.Errorf("%s refuses %s without naming it: %v", tc.tool, k.name, err)
			}
		}
	}
}

// TestPolicyFaultsOncePerAccess drives a bypassing PDP through hits,
// bypasses and misses that evict: with counter.flip=1 and until=U, every
// prefix of k accesses books exactly min(k, U) flips, so a fault is drawn
// per access and not per cache event.
func TestPolicyFaultsOncePerAccess(t *testing.T) {
	const until = 3000
	p := core.New(core.Config{Sets: 16, Ways: 4, Bypass: true, RecomputeEvery: 512, FullSampler: true})
	c := cache.New(cache.Config{Name: "LLC", Sets: 16, Ways: 4, LineSize: trace.LineSize, AllowBypass: true}, p)
	rep := NewReporter(nil)
	c.SetMonitor(NewInjector(Spec{CounterFlip: 1, Until: until, Seed: 3}, 1, rep).Monitor(p))
	rng := trace.NewRNG(5)
	for k := 1; k <= 2*until; k++ {
		c.Access(trace.Access{Addr: uint64(rng.Intn(256)) * trace.LineSize})
		if got := rep.Count("counter.flip"); got != uint64(min(k, until)) {
			t.Fatalf("after %d accesses: %d flips, want %d", k, got, min(k, until))
		}
	}
	if c.Stats.Evictions == 0 || c.Stats.Hits == 0 || c.Stats.Bypasses == 0 {
		t.Fatalf("stream did not exercise hit, evict and bypass: %+v", c.Stats)
	}
}

// flipLog is an RDDArray that records the bit flips it receives.
type flipLog struct{ flips []string }

func (f *flipLog) K() int { return 16 }
func (f *flipLog) Corrupt(k int, mask uint32) {
	f.flips = append(f.flips, fmt.Sprintf("%d/%#x", k, mask))
}
func (f *flipLog) Reset() { f.flips = append(f.flips, "reset") }

// TestInjectorStreamSeeds pins the serving path's documented draws: stream
// i draws from Seed ^ (i+1)·0x9E3779B97F4A7C15 in the order counter.flip
// (Bernoulli, counter, bit), then rdd.zero, and the recompute faults from
// Seed ^ 0x5EF5EF5E, a stall before a panic.
func TestInjectorStreamSeeds(t *testing.T) {
	spec := Spec{CounterFlip: 0.3, RDDZero: 0.05, RecomputePanic: 0.4, Seed: 11}
	in := NewInjector(spec, 3, nil)
	for i := 0; i < 3; i++ {
		got, want := &flipLog{}, &flipLog{}
		rng := trace.NewRNG(spec.Seed ^ uint64(i+1)*0x9E3779B97F4A7C15)
		for range 500 {
			in.Access(i, got)
			if rng.Bernoulli(spec.CounterFlip) {
				k := rng.Intn(want.K())
				want.Corrupt(k, 1<<uint(rng.Intn(16)))
			}
			if rng.Bernoulli(spec.RDDZero) {
				want.Reset()
			}
		}
		if !slices.Equal(got.flips, want.flips) {
			t.Fatalf("stream %d drew %v, want %v", i, got.flips, want.flips)
		}
	}
	rrng := trace.NewRNG(spec.Seed ^ 0x5EF5EF5E)
	for seq := uint64(1); seq <= 200; seq++ {
		want := rrng.Bernoulli(spec.RecomputePanic)
		got := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			in.Recompute(seq)
			return false
		}()
		if got != want {
			t.Fatalf("recompute %d: panicked=%v, want %v", seq, got, want)
		}
	}
}
