package experiments

import (
	"bytes"
	"strings"
	"testing"

	"pdp/internal/workload"
)

// tinyConfig is small enough for unit tests yet large enough for the
// qualitative shapes to emerge.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Accesses:            120_000,
		MCAccessesPerThread: 40_000,
		Mixes4:              2,
		Mixes16:             1,
		Seed:                42,
		Out:                 buf,
	}
}

func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{"fig1", "fig2", "fig4", "fig5a", "fig5b", "fig6", "fig9",
		"fig10", "fig11", "fig12", "tab2", "overhead", "sec63", "sec65", "pdproc"}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %s missing from registry", w)
		}
	}
	if _, ok := ByID("fig10"); !ok {
		t.Error("ByID failed for fig10")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestRunSingleBasics(t *testing.T) {
	b, _ := workload.ByName("436.cactusADM")
	r := RunSingle(b, specDIP(), 50_000, 1)
	if r.Stats.Accesses != 50_000 {
		t.Fatalf("accesses = %d, want 50000", r.Stats.Accesses)
	}
	if r.IPC <= 0 || r.MPKI <= 0 || r.Instr == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	// Determinism.
	r2 := RunSingle(b, specDIP(), 50_000, 1)
	if r2.Stats != r.Stats {
		t.Fatal("RunSingle not deterministic")
	}
}

func TestPDPBeatsDIPOnCactusADM(t *testing.T) {
	// The paper's headline single-core case: cactusADM's peak at ~68 is
	// invisible to DIP but captured by the dynamic PDP.
	b, _ := workload.ByName("436.cactusADM")
	const n = 800_000
	dip := RunSingle(b, specDIP(), n, 1)
	pdp := RunSingle(b, specPDP(8, 40_000), n, 1)
	if pdp.Stats.Misses >= dip.Stats.Misses {
		t.Fatalf("PDP-8 misses %d vs DIP %d: PDP must win on cactusADM",
			pdp.Stats.Misses, dip.Stats.Misses)
	}
	red := 1 - float64(pdp.Stats.Misses)/float64(dip.Stats.Misses)
	if red < 0.05 {
		t.Fatalf("miss reduction %.3f too small for the showcase benchmark", red)
	}
}

func TestAstarIndifferent(t *testing.T) {
	// LRU-friendly benchmark: no policy should change much (paper: "in
	// some the LRU replacement works fine").
	b, _ := workload.ByName("473.astar")
	const n = 200_000
	dip := RunSingle(b, specDIP(), n, 1)
	pdp := RunSingle(b, specPDP(8, n/8), n, 1)
	rel := float64(pdp.Stats.Misses)/float64(dip.Stats.Misses) - 1
	if rel > 0.10 {
		t.Fatalf("PDP hurts astar by %.1f%%; should be near-neutral", 100*rel)
	}
}

func TestRunMixShapes(t *testing.T) {
	mixes := workload.Mixes(4, 1, 7)
	r := RunMix(mixes[0], []MCPolicySpec{mcTADRRIP()}, 20_000, 1, TelemetryOptions{})[0]
	if len(r.IPC) != 4 {
		t.Fatalf("got %d IPCs, want 4", len(r.IPC))
	}
	for i, v := range r.IPC {
		if v <= 0 {
			t.Fatalf("thread %d IPC %v", i, v)
		}
	}
}

func TestExperimentsSmoke(t *testing.T) {
	// Every experiment must run end-to-end and produce output.
	if testing.Short() {
		t.Skip("slow smoke test")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := tinyConfig(&buf)
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if buf.Len() < 40 {
				t.Fatalf("%s produced no meaningful output", e.ID)
			}
			if !strings.Contains(buf.String(), "===") {
				t.Fatalf("%s missing header", e.ID)
			}
		})
	}
}
