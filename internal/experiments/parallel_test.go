package experiments

import (
	"bytes"
	"testing"

	"pdp/internal/parallel"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// TestTablesByteIdenticalAcrossJobs is the engine's core guarantee: an
// experiment's rendered table is the same byte sequence at every jobs
// count. The sample covers each parallel shape — Grid with a shared base
// column (fig2), the Map over measured RDDs (fig5b), Grid with the base
// doubling as the normalization column (fig9), a Map whose last task is a
// sweep (sec63), and the mix x policy grid plus the parallel stand-alone
// baselines (fig12).
func TestTablesByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow determinism test")
	}
	for _, id := range []string{"fig2", "fig5b", "fig9", "sec63", "fig12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			render := func(jobs int) []byte {
				var buf bytes.Buffer
				cfg := Config{
					Accesses:            60_000,
					MCAccessesPerThread: 20_000,
					Mixes4:              2,
					Mixes16:             1,
					Seed:                42,
					Out:                 &buf,
					Jobs:                jobs,
				}
				if err := e.Run(cfg); err != nil {
					t.Fatalf("%s with jobs=%d: %v", id, jobs, err)
				}
				return buf.Bytes()
			}
			serial := render(1)
			parallel8 := render(8)
			if !bytes.Equal(serial, parallel8) {
				t.Fatalf("%s output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
					id, serial, parallel8)
			}
		})
	}
}

// TestConcurrentRunsSharedMonitor drives 8 concurrent telemetry runs that
// share one journal and one registry — the exact sharing pattern of a
// Jobs > 1 fan-out. Run under -race this is the audit for the telemetry
// layer's cross-run state.
func TestConcurrentRunsSharedMonitor(t *testing.T) {
	b, ok := workload.ByName("436.cactusADM")
	if !ok {
		t.Fatal("benchmark missing")
	}
	journal := telemetry.NewJournal(256)
	reg := telemetry.NewRegistry()

	const runs = 8
	results := make([]RunResult, runs)
	err := parallel.ForEach(runs, runs, func(i int) error {
		results[i] = RunMany(b, []PolicySpec{specPDP(8, 10_000)}, 40_000, 42, RunOptions{Telemetry: TelemetryOptions{
			Registry:      reg,
			Journal:       journal,
			SnapshotEvery: 10_000,
			EventSample:   64,
		}})[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < runs; i++ {
		if results[i].Stats != results[0].Stats {
			t.Fatalf("identically-seeded concurrent runs diverge: run %d %+v vs run 0 %+v",
				i, results[i].Stats, results[0].Stats)
		}
	}
	if journal.Total() == 0 {
		t.Fatal("shared journal recorded nothing")
	}
	if len(reg.Snapshot()) == 0 {
		t.Fatal("shared registry recorded nothing")
	}
}
