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
//
// RunMany over sim_suite's five policies pays for the generator once: its
// budget is one run's plus four more caches, where five RunSingle calls
// would pay for the generator five times.
func TestRunSingleAllocBudget(t *testing.T) {
	const n = 100_000
	const perCache = 1 << 20 // an LLC and its policy allocate ~0.5 MB

	var five []PolicySpec
	for _, name := range []string{"lru", "dip", "drrip", "sdp", "pdp-8"} {
		spec, err := SpecByName(name, n)
		if err != nil {
			t.Fatal(err)
		}
		five = append(five, spec)
	}
	allocs := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, b := range workload.All() {
		budget := uint64(3 << 20)
		if _, ok := b.Generator(1, 0, 1).(*trace.RDDGen); ok {
			budget = 24 << 20
		}
		for _, c := range []struct {
			what   string
			run    func()
			budget uint64
		}{
			{"one task", func() { RunSingle(b, five[0], n, 1) }, budget},
			{"RunMany of five", func() { RunMany(b, five, n, 1, TelemetryOptions{}) }, budget + 4*perCache},
		} {
			if got := allocs(c.run); got > c.budget {
				t.Errorf("%s: %s allocated %.1f MB, budget %.1f MB", b.Name, c.what, float64(got)/(1<<20), float64(c.budget)/(1<<20))
			} else {
				t.Logf("%s: %s %.1f MB", b.Name, c.what, float64(got)/(1<<20))
			}
		}
	}
}
