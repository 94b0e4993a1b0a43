package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"pdp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json and testdata/sim_digests.json from the code")

// manifest is BENCHMARK.json, field for field.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []manifestE2E `json:"end_to_end"`
	PerLayer   []manifestRow `json:"per_layer"`
}

type manifestRow struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestE2E struct {
	manifestRow
	Bound float64 `json:"bound"`
}

func wantManifest() manifest {
	m := manifest{Command: []string{"sh", "bench/run.sh"}, Paths: []string{"bench"},
		RunSeconds: 10, Workloads: workloads}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{manifestRow{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestRow{d.Name, d.Unit, d.Better})
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the tables in spec.go and both to
// the limits a benchmark manifest must stay inside.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; run go test -run TestManifest -update")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", d)
	}
}

// TestShortSuite drives both passes of all six workloads at the short
// sizes and checks what they emit: exactly the manifest's metrics, every
// value finite, nothing failed.
func TestShortSuite(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	rep, err := runSuite(names, short, 1, 300*time.Millisecond, -1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2*len(workloads) {
		t.Fatalf("%d results, want %d", len(rep.Results), 2*len(workloads))
	}
	for _, r := range rep.Results {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d wrong=%v",
				r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed, r.Wrong)
		}
		defs := endToEnd
		if r.Trace == 1 {
			defs = perLayer
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%d: %s missing", r.Workload, r.Trace, d.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s trace=%d: %s = %v", r.Workload, r.Trace, d.Name, v.Value)
			case r.Trace == 0 && v.Value <= 0:
				t.Errorf("%s: end-to-end %s = %v, must never be 0", r.Workload, d.Name, v.Value)
			case v.Unit != d.Unit:
				t.Errorf("%s trace=%d: %s in %q, want %q", r.Workload, r.Trace, d.Name, v.Unit, d.Unit)
			}
		}
		if line, err := contractLine(r); err != nil || !json.Valid(line) {
			t.Errorf("%s trace=%d: summary line %q: %v", r.Workload, r.Trace, line, err)
		}
	}
}

// TestSimDigest pins the simulator's statistics at the short sizes. With
// -update it also re-pins the full-size digests of seeds 1 and 2, which
// every real run of sim_suite on those seeds is held to.
func TestSimDigest(t *testing.T) {
	var pinned map[string]string
	if err := json.Unmarshal(simDigestsJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	digest := func(sz sizes, seed uint64) string {
		p, err := runSimPass(simTasks(sz), sz.simN, seed, simJobs, time.Now(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.digest()
	}
	if *update {
		pinned = map[string]string{
			simDigestKey(short, 1): digest(short, 1),
			simDigestKey(full, 1):  digest(full, 1),
			simDigestKey(full, 2):  digest(full, 2),
		}
		b, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/sim_digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{simDigestKey(short, 1), simDigestKey(full, 1), simDigestKey(full, 2)} {
		if pinned[k] == "" {
			t.Errorf("testdata/sim_digests.json has no digest for %q", k)
		}
	}
	if got, want := digest(short, 1), pinned[simDigestKey(short, 1)]; got != want {
		t.Errorf("short sim digest %s, pinned %s", got, want)
	}
	if digest(short, 2) == pinned[simDigestKey(short, 1)] {
		t.Error("another seed gave the same simulated statistics")
	}
}

func TestTraceDeterminism(t *testing.T) {
	mix := short.readMix()
	a, b := genTrace(mix, 1, 0, 5000), genTrace(mix, 1, 0, 5000)
	if traceHash(a) != traceHash(b) {
		t.Error("the same seed gave two traces")
	}
	if traceHash(a) == traceHash(genTrace(mix, 2, 0, 5000)) {
		t.Error("another seed gave the same trace")
	}
	mix.ScanLoop /= nClients
	s := workload.NewServiceStream(mix, 1)
	for i, v := range a {
		op := s.Next()
		if kind, id := unpackOp(v); kind != op.Kind || id != op.Key {
			t.Fatalf("op %d: %+v unpacks as kind %d key %x", i, op, kind, id)
		}
	}
	// Clients share hot keys and split the scan pool.
	scans := [nClients]map[uint64]bool{{}, {}}
	for w := range scans {
		for _, v := range genTrace(short.readMix(), 1, w, 5000) {
			if _, id := unpackOp(v); id&scanBit != 0 {
				scans[w][id] = true
			}
		}
	}
	for id := range scans[0] {
		if scans[1][id] {
			t.Fatalf("scan key %x is in both clients' pools", id)
		}
	}
	if len(scans[0]) == 0 || len(scans[1]) == 0 {
		t.Error("a client's trace has no scan keys")
	}
}

func TestValues(t *testing.T) {
	sizes := map[int]bool{}
	for id := uint64(0); id < 1000; id++ {
		v := appendValue(nil, id)
		sizes[len(v)] = true
		if !valueOK(v, id) {
			t.Fatalf("value of key %d does not verify", id)
		}
		if valueOK(v, id+1) && len(v) == valueSize(id+1) {
			t.Fatalf("value of key %d verifies as key %d's", id, id+1)
		}
		v[len(v)-1] ^= 1
		if valueOK(v, id) {
			t.Fatalf("a flipped bit in key %d's value went unnoticed", id)
		}
	}
	if len(sizes) != len(valueSizes) {
		t.Errorf("1000 keys used %d value sizes, want %d", len(sizes), len(valueSizes))
	}
	if got := string(appendKey(nil, 0xabc)); got != "k0000000000000abc" {
		t.Errorf("key %q", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{9, 1, 1, 1, 1}, 1}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	m := metrics{}
	m.setMedian("x", []float64{10, 30, 20, 1000, 15}, 5)
	if v := m["x"]; v.Value != 20 || v.Min != 10 || v.Max != 1000 {
		t.Errorf("segment median %+v: one disturbed segment must not move it", v)
	}
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.05}
	mk := func(v, lo, hi float64) metric { return metric{Value: v, Min: lo, Max: hi} }
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new metric
		want     verdict
	}{
		{"same", lower, mk(100, 99, 101), mk(100, 99, 101), verdictOK},
		{"within bound", lower, mk(100, 99, 101), mk(104, 103, 105), verdictOK},
		{"slower beyond bound", lower, mk(100, 99, 101), mk(110, 109, 111), verdictWorse},
		{"faster is not worse", lower, mk(100, 99, 101), mk(80, 79, 81), verdictOK},
		{"rate dropped", higher, mk(100, 99, 101), mk(90, 89, 91), verdictWorse},
		{"rate rose", higher, mk(100, 99, 101), mk(120, 119, 121), verdictOK},
		{"noisy and overlapping", lower, mk(100, 90, 110), mk(108, 95, 115), verdictUnresolved},
		{"noisy but every run worse", lower, mk(100, 90, 110), mk(130, 120, 140), verdictWorse},
		{"noisy but every run better", lower, mk(100, 90, 110), mk(70, 60, 80), verdictOK},
	} {
		if got, _, _ := judge(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
