package experiments

// One benchmark per reproduced paper artifact (tables and figures), each
// running a scaled-down version of the corresponding experiment harness,
// plus micro-benchmarks of the hot paths. Regenerate the full-size tables
// with `go run ./cmd/repro all`.

import (
	"io"
	"testing"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/dip"
	"pdp/internal/eelru"
	"pdp/internal/partition"
	"pdp/internal/pdproc"
	"pdp/internal/rrip"
	"pdp/internal/sampler"
	"pdp/internal/sdp"
	"pdp/internal/telemetry"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// benchConfig returns an experiment configuration small enough for
// testing.B iteration yet large enough to exercise every phase.
func benchConfig() Config {
	return Config{
		Accesses:            80_000,
		MCAccessesPerThread: 25_000,
		Mixes4:              2,
		Mixes16:             1,
		Seed:                42,
		Out:                 io.Discard,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01RDD(b *testing.B)           { benchExperiment(b, "fig1") }
func BenchmarkFig02DRRIPEpsilon(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig04StaticPDP(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig05aOccupancy(b *testing.B)    { benchExperiment(b, "fig5a") }
func BenchmarkFig05bXalancRDDs(b *testing.B)   { benchExperiment(b, "fig5b") }
func BenchmarkFig06HitRateModel(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig09Params(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10SingleCore(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11Phases(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12Partitioning(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkTab2PDDistribution(b *testing.B) { benchExperiment(b, "tab2") }
func BenchmarkSec62Overhead(b *testing.B)      { benchExperiment(b, "overhead") }
func BenchmarkSec63McfInsertion(b *testing.B)  { benchExperiment(b, "sec63") }
func BenchmarkSec65Prefetch(b *testing.B)      { benchExperiment(b, "sec65") }
func BenchmarkPDProc(b *testing.B)             { benchExperiment(b, "pdproc") }

// --- micro-benchmarks of the simulation hot paths ---

func benchPolicyAccess(b *testing.B, pol cache.Policy, bypass bool) {
	b.Helper()
	const sets, ways = 2048, 16
	c := cache.New(cache.Config{
		Name: "LLC", Sets: sets, Ways: ways, LineSize: trace.LineSize, AllowBypass: bypass,
	}, pol)
	bench, _ := workload.ByName("436.cactusADM")
	g := bench.Generator(sets, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(g.Next())
	}
}

func BenchmarkAccessLRU(b *testing.B) {
	benchPolicyAccess(b, cache.NewLRU(2048, 16), false)
}

func BenchmarkAccessDIP(b *testing.B) {
	benchPolicyAccess(b, dip.NewDIP(2048, 16, 1.0/32, 1), false)
}

func BenchmarkAccessDRRIP(b *testing.B) {
	benchPolicyAccess(b, rrip.NewDRRIP(2048, 16, 1.0/32, 1), false)
}

func BenchmarkAccessSDP(b *testing.B) {
	benchPolicyAccess(b, sdp.New(sdp.Config{Sets: 2048, Ways: 16, AllowBypass: true}), true)
}

func BenchmarkAccessEELRU(b *testing.B) {
	benchPolicyAccess(b, eelru.New(eelru.Config{Sets: 2048, Ways: 16}), false)
}

func BenchmarkAccessPDP8(b *testing.B) {
	benchPolicyAccess(b, core.New(core.Config{Sets: 2048, Ways: 16, Bypass: true}), true)
}

// --- telemetry overhead guard ---
//
// BenchmarkAccessPDP8 above is the disabled mode: no monitor attached, the
// cache pays a single nil check per event site. The two variants below
// bound the cost of attaching the pipeline; compare with
// `go test -bench 'AccessPDP8' -benchtime 2s -count 5 -run @ | benchstat`.
// The NilSinks variant (tap attached, every sink nil) must be within noise
// of the baseline.

func benchPDP8Telemetry(b *testing.B, cfg telemetry.TapConfig) {
	b.Helper()
	const sets, ways = 2048, 16
	pol := core.New(core.Config{Sets: sets, Ways: ways, Bypass: true})
	c := cache.New(cache.Config{
		Name: "LLC", Sets: sets, Ways: ways, LineSize: trace.LineSize, AllowBypass: true,
	}, pol)
	tap := telemetry.NewTap(c, cfg)
	tap.ObservePolicy(pol)
	telemetry.ObservePDP(pol, cfg.Journal, cfg.EventSample)
	c.SetMonitor(tap)
	bench, _ := workload.ByName("436.cactusADM")
	g := bench.Generator(sets, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(g.Next())
	}
}

func BenchmarkAccessPDP8TelemetryNilSinks(b *testing.B) {
	benchPDP8Telemetry(b, telemetry.TapConfig{})
}

func BenchmarkAccessPDP8TelemetryFull(b *testing.B) {
	benchPDP8Telemetry(b, telemetry.TapConfig{
		Registry:      telemetry.NewRegistry(),
		Journal:       telemetry.NewJournal(0),
		SnapshotEvery: 100_000,
		EventSample:   1024,
	})
}

func BenchmarkAccessPDPPart4(b *testing.B) {
	benchPolicyAccess(b, partition.NewPDPPart(partition.PDPPartConfig{Sets: 2048, Ways: 16, Threads: 4}), true)
}

func BenchmarkRDSampler(b *testing.B) {
	s := sampler.New(sampler.RealConfig(2048, 4))
	bench, _ := workload.ByName("436.cactusADM")
	g := bench.Generator(2048, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := g.Next()
		s.Access(int(a.Addr/trace.LineSize%2048), a.Addr)
	}
}

func BenchmarkFindPDSoftware(b *testing.B) {
	arr := sampler.NewCounterArray(256, 4)
	for d := 1; d <= 256; d++ {
		for i := 0; i < d%7+1; i++ {
			arr.RecordHit(d)
		}
	}
	for i := 0; i < 2000; i++ {
		arr.RecordAccess()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FindPD(arr, 16)
	}
}

func BenchmarkFindPDHardwareModel(b *testing.B) {
	arr := sampler.NewCounterArray(256, 4)
	for d := 1; d <= 256; d++ {
		for i := 0; i < d%7+1; i++ {
			arr.RecordHit(d)
		}
	}
	for i := 0; i < 2000; i++ {
		arr.RecordAccess()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdproc.Compute(arr, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceRDDGen(b *testing.B) {
	g := trace.NewRDDGen("bench", trace.RDDSpec{
		Peaks: []trace.Peak{{Dist: 40, Weight: 0.4}, {Dist: 120, Weight: 0.2}},
		Fresh: 0.3, Far: 0.1,
	}, 2048, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkRunSingleTask times what a sim_suite task pays: generator and
// cache are built inside the loop. BenchmarkTraceRDDGen above times only the
// steady state of one long-lived generator and cannot see what a task's
// set-up allocates.
func BenchmarkRunSingleTask(b *testing.B) {
	const n = 100_000
	for _, t := range []struct{ bench, policy string }{
		{"403.gcc", "lru"},
		{"436.cactusADM", "pdp-8"},
	} {
		bm, _ := workload.ByName(t.bench)
		spec, err := SpecByName(t.policy, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(t.bench+"/"+t.policy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunSingle(bm, spec, n, 1)
			}
		})
	}
}

// BenchmarkRunManyTask times one model through sim_suite's five policies
// on one stream: the generator is paid for once, not once per policy as
// five BenchmarkRunSingleTask-shaped tasks pay for it.
func BenchmarkRunManyTask(b *testing.B) {
	const n = 100_000
	var specs []PolicySpec
	for _, p := range []string{"lru", "dip", "drrip", "sdp", "pdp-8"} {
		spec, err := SpecByName(p, n)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, name := range []string{"403.gcc", "436.cactusADM"} {
		bm, _ := workload.ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunMany(bm, specs, n, 1, TelemetryOptions{})
			}
		})
	}
}

// taskAccesses is what a 100 000-access task draws from its model:
// Warmup(n)+n accesses.
const taskAccesses = 64_000 + 100_000

// BenchmarkFill times one task's stream per model: Reset, then
// taskAccesses drawn a runBlock at a time, as RunMany draws them. It
// reports ns per access; set beside BenchmarkCacheAccess it splits a
// sim_suite task into generator and cache.
func BenchmarkFill(b *testing.B) {
	buf := make([]trace.Access, runBlock)
	for _, bm := range workload.All() {
		g := bm.Generator(LLCSets, 1, 1)
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Reset()
				for n := taskAccesses; n > 0; n -= runBlock {
					trace.Fill(g, buf[:min(n, runBlock)])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/taskAccesses, "ns/access")
		})
	}
}

// BenchmarkCacheAccess times the cache side of the same task, per
// sim_suite policy: a fresh LLC fed one collected 436.cactusADM stream of
// taskAccesses. It reports ns per access.
func BenchmarkCacheAccess(b *testing.B) {
	bm, _ := workload.ByName("436.cactusADM")
	accs := trace.Collect(bm.Generator(LLCSets, 1, 1), taskAccesses)
	for _, p := range []string{"lru", "dip", "drrip", "sdp", "pdp-8"} {
		spec, err := SpecByName(p, taskAccesses-64_000)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := cache.New(cache.Config{Name: "LLC", Sets: LLCSets, Ways: LLCWays,
					LineSize: trace.LineSize, AllowBypass: spec.Bypass}, spec.New(LLCSets, LLCWays, 1))
				for _, a := range accs {
					c.Access(a)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/taskAccesses, "ns/access")
		})
	}
}
