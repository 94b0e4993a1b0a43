package experiments

import (
	"runtime"
	"testing"

	"pdp/internal/trace"
	"pdp/internal/workload"
)

// TestRunSingleAllocBudget bounds the bytes one sim_suite-sized task
// allocates. It measures work, not time, so it reads the same on any
// machine: a task over an RDDGen model allocated 47 MB when the generator
// pre-sized one Go map per set, and allocates 5-19 MB with its index grown
// on demand; the other models need only the cache, the policy and a loop's
// generation counters.
func TestRunSingleAllocBudget(t *testing.T) {
	const n = 100_000
	spec, err := SpecByName("lru", n)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range workload.All() {
		budget := uint64(3 << 20)
		if _, ok := b.Generator(1, 0, 1).(*trace.RDDGen); ok {
			budget = 24 << 20
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RunSingle(b, spec, n, 1)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%s: one task allocated %.1f MB, budget %d MB", b.Name, float64(got)/(1<<20), budget>>20)
		} else {
			t.Logf("%s: %.1f MB", b.Name, float64(got)/(1<<20))
		}
	}
}
