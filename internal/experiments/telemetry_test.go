package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// TestRunSingleTelemetry is the ISSUE acceptance path at unit scale: a
// pdp-8 run must journal pd_recompute events and periodic snapshots that
// carry a hit rate and the current PD, all as valid JSONL.
func TestRunSingleTelemetry(t *testing.T) {
	b, ok := workload.ByName("436.cactusADM")
	if !ok {
		t.Fatal("benchmark model missing")
	}
	const n = 40_000 // SpecByName floors RecomputeEvery at 4096 -> ~9 recomputes
	spec, err := SpecByName("pdp-8", n)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	j := telemetry.NewJournal(0)
	var sink bytes.Buffer
	j.SetSink(&sink)

	r := RunMany(b, []PolicySpec{spec}, n, 42, TelemetryOptions{
		Registry:      reg,
		Journal:       j,
		SnapshotEvery: 10_000,
		EventSample:   64,
	})[0]
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	if r.Stats.Accesses != n {
		t.Fatalf("accesses = %d, want %d", r.Stats.Accesses, n)
	}
	if got := reg.Counter("LLC.hits").Value(); got != r.Stats.Hits {
		t.Fatalf("hits counter = %d, stats = %d", got, r.Stats.Hits)
	}
	if j.CountKind(telemetry.KindPDRecompute) == 0 {
		t.Fatal("no pd_recompute records")
	}
	if j.CountKind(telemetry.KindSnapshot) != 4 {
		t.Fatalf("snapshots = %d, want 4", j.CountKind(telemetry.KindSnapshot))
	}

	// Every sink line is valid JSON; snapshots carry hit_rate and pd,
	// recomputes carry the RDD and new PD.
	sc := bufio.NewScanner(&sink)
	var snaps, recomputes int
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		switch rec["kind"] {
		case telemetry.KindSnapshot:
			snaps++
			if _, ok := rec["hit_rate"]; !ok {
				t.Fatalf("snapshot without hit_rate: %v", rec)
			}
			if pd, _ := rec["pd"].(float64); pd <= 0 {
				t.Fatalf("snapshot without positive pd: %v", rec)
			}
		case telemetry.KindPDRecompute:
			recomputes++
			if pd, _ := rec["new_pd"].(float64); pd <= 0 {
				t.Fatalf("recompute without new_pd: %v", rec)
			}
			if _, ok := rec["rdd"]; !ok {
				t.Fatalf("recompute without rdd: %v", rec)
			}
		}
	}
	if snaps != 4 || recomputes == 0 {
		t.Fatalf("sink saw %d snapshots, %d recomputes", snaps, recomputes)
	}
}

// TestRunMixTelemetry checks the multi-core pipeline: snapshots carry
// per-core occupancy and, for the PD-partitioning policy, per-thread PDs.
func TestRunMixTelemetry(t *testing.T) {
	mix := workload.Mixes(2, 1, 44)[0]
	const perThread = 20_000
	spec, err := MCSpecByName("pdppart-3", perThread)
	if err != nil {
		t.Fatal(err)
	}

	j := telemetry.NewJournal(256)
	res := RunMix(mix, []MCPolicySpec{spec}, perThread, 42, TelemetryOptions{
		Journal:       j,
		SnapshotEvery: 20_000,
		EventSample:   64,
	})[0]
	if len(res.IPC) != 2 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if j.CountKind(telemetry.KindSnapshot) == 0 {
		t.Fatal("no snapshots")
	}
	for _, rec := range j.Tail(j.Len()) {
		snap, ok := rec.(telemetry.SnapshotRecord)
		if !ok {
			continue
		}
		if len(snap.Occupancy) != 2 {
			t.Fatalf("occupancy = %v, want 2 cores", snap.Occupancy)
		}
		sum := snap.Occupancy[0] + snap.Occupancy[1]
		if sum <= 0 || sum > 1.0001 {
			t.Fatalf("occupancy sums to %v: %v", sum, snap.Occupancy)
		}
		if len(snap.PDs) != 2 {
			t.Fatalf("per-thread PDs = %v, want 2", snap.PDs)
		}
		for _, pd := range snap.PDs {
			if pd <= 0 {
				t.Fatalf("non-positive per-thread PD: %v", snap.PDs)
			}
		}
	}
}
