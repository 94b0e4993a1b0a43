package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdp/internal/cache"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny/<id>.golden from the experiments")

// tinyConfig is small enough for unit tests yet large enough for the
// qualitative shapes to emerge. It runs on every core: tables are
// byte-identical for every Jobs value, so the goldens hold at any.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Accesses:            120_000,
		MCAccessesPerThread: 40_000,
		Mixes4:              2,
		Mixes16:             1,
		Seed:                42,
		Jobs:                -1,
		Out:                 buf,
	}
}

// goldenPath is where experiment id's tinyConfig output is pinned.
func goldenPath(id string) string {
	return filepath.Join("testdata", "tiny", id+".golden")
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
	for _, id := range ids {
		if _, err := os.Stat(goldenPath(id)); err != nil {
			t.Errorf("experiment %s has no golden: %v", id, err)
		}
	}
	files, _ := filepath.Glob(goldenPath("*"))
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".golden"); !have[id] {
			t.Errorf("golden %s names no registered experiment", f)
		}
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

// TestEveryNamedPolicyRuns builds every policy of policyNames (pdpsim's
// -policy vocabulary, a final N given as 64) through SpecByName or
// MCSpecByName against one small geometry and runs 5 000 accesses of two
// threads through an LLC.
func TestEveryNamedPolicyRuns(t *testing.T) {
	const sets, ways, n = 64, 8, 5000
	type named struct {
		name   string
		bypass bool
		pol    cache.Policy
	}
	var pols []named
	for _, p := range policyNames {
		nm := p.name
		if prefix, ok := strings.CutSuffix(nm, "N"); ok {
			nm = prefix + "64"
		}
		if p.single != nil {
			s, err := SpecByName(nm, n)
			if err != nil {
				t.Fatal(err)
			}
			pols = append(pols, named{nm, s.Bypass, s.New(sets, ways, 1)})
		} else {
			s, err := MCSpecByName(nm, n)
			if err != nil {
				t.Fatal(err)
			}
			pols = append(pols, named{nm, s.Bypass, s.New(sets, ways, 2, 1)})
		}
	}
	g := trace.NewNoiseGen("n", 1, 7)
	for _, p := range pols {
		c := cache.New(cache.Config{
			Name: p.name, Sets: sets, Ways: ways, LineSize: trace.LineSize,
			AllowBypass: p.bypass,
		}, p.pol)
		for i := 0; i < n; i++ {
			a := g.Next()
			a.Thread = i % 2
			c.Access(a)
		}
		if c.Stats.Accesses != n {
			t.Fatalf("%s: accesses %d, want %d", p.name, c.Stats.Accesses, n)
		}
	}
}

// TestUnknownPolicyListsEveryName: a name no resolver takes (a typo, a
// multi-core name asked of SpecByName, a parameter below 1 or not a
// number) is an error that lists every policyNames name.
func TestUnknownPolicyListsEveryName(t *testing.T) {
	errs := []error{}
	for _, nm := range []string{"bogus", "ucp", "spdp-b:0", "spdp-b:0.5", "spdp-b:", "spdp-b:7x", "drrip:1/-4", "drrip:1/inf"} {
		_, err := SpecByName(nm, 1000)
		errs = append(errs, err)
	}
	for _, nm := range []string{"bogus", "pdp-8", "pdppart-N"} {
		_, err := MCSpecByName(nm, 1000)
		errs = append(errs, err)
	}
	for _, err := range errs {
		if err == nil {
			t.Fatal("a name outside the vocabulary resolved")
		}
		for _, p := range policyNames {
			if !strings.Contains(err.Error(), p.name) {
				t.Errorf("%q does not list %s", err, p.name)
			}
		}
	}
}

func TestExperimentsSmoke(t *testing.T) {
	// Every experiment runs end to end and prints exactly its golden.
	// Rerun with -update to rewrite them after an intended result change.
	if testing.Short() {
		t.Skip("slow smoke test")
	}
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(tinyConfig(&buf)); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			path := goldenPath(e.ID)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with -update)", err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s at %s", e.ID, path, firstDiff(string(got), string(want)))
			}
		})
	}
}

// firstDiff names the first line at which got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "no line (lengths differ)"
}
