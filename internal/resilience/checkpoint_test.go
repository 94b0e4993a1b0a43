package resilience

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"pdp/internal/telemetry"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c := NewCheckpoint()
	c.MarkDone("fig10", 2*time.Second)
	c.MarkDone("tab2", 500*time.Millisecond)

	j := telemetry.NewJournal(8)
	if err := c.Save(path, j); err != nil {
		t.Fatal(err)
	}
	if j.CountKind(telemetry.KindCheckpoint) != 1 {
		t.Fatal("checkpoint save not journaled")
	}

	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done("fig10") || !got.Done("tab2") || got.Done("fig11") {
		t.Fatal("completed set did not round-trip")
	}
	if got.CompletedCount() != 2 {
		t.Fatalf("CompletedCount = %d, want 2", got.CompletedCount())
	}
}

func TestCheckpointResumeSkipsCompletedIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c := NewCheckpoint()
	ids := []string{"fig1", "fig2", "fig4"}
	c.MarkDone("fig1", time.Second)
	c.MarkDone("fig4", time.Second)
	if err := c.Save(path, nil); err != nil {
		t.Fatal(err)
	}

	resumed, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	for _, id := range ids {
		if resumed.Done(id) {
			continue
		}
		ran = append(ran, id)
	}
	if len(ran) != 1 || ran[0] != "fig2" {
		t.Fatalf("resume ran %v, want only fig2", ran)
	}
}

// TestLegacyCheckpointIsSafeToResume decodes a file in the format that
// keyed completions by "<id>/n=<n>/seed=<s>" and carried trace offsets: it
// still loads, and under its own config none of its keys marks a bare
// experiment id done, so a resume reruns every experiment rather than
// skipping one wrongly.
func TestLegacyCheckpointIsSafeToResume(t *testing.T) {
	legacy := []byte(`{
  "version": 1,
  "config": {"accesses": 50000, "mc_accesses_per_thread": 20000, "mixes4": 20, "mixes16": 8, "seed": 42},
  "completed": {
    "tab2/n=50000/seed=42": {"seconds": 0.4, "unix_sec": 1760000000},
    "fig5b/n=50000/seed=42": {"seconds": 1.2, "unix_sec": 1760000001}
  },
  "offsets": {"436.cactusADM/PDP-8/n=1000000/seed=42": 300000}
}
`)
	c, err := DecodeCheckpoint(legacy)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Accesses: 50000, MCAccessesPerThread: 20000, Mixes4: 20, Mixes16: 8, Seed: 42}
	if ok, why := c.ConfigMatches(rc); !ok {
		t.Fatalf("legacy config rejected: %s", why)
	}
	for _, id := range []string{"tab2", "fig5b"} {
		if c.Done(id) {
			t.Fatalf("legacy key marks %s done", id)
		}
	}
}

func TestLoadCheckpointMissingFileIsFresh(t *testing.T) {
	c, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if c.CompletedCount() != 0 {
		t.Fatal("missing file should load as empty checkpoint")
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json",
		`{"version": 99}`,
		`[]`,
	} {
		if _, err := DecodeCheckpoint([]byte(bad)); err == nil {
			t.Fatalf("DecodeCheckpoint(%q) accepted garbage", bad)
		}
	}
}

func TestCheckpointSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	c := NewCheckpoint()
	c.MarkDone("fig1", time.Second)
	if err := c.Save(path, nil); err != nil {
		t.Fatal(err)
	}
	c.MarkDone("fig2", time.Second)
	if err := c.Save(path, nil); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done("fig1") || !got.Done("fig2") {
		t.Fatal("second save lost state")
	}
}

func TestCheckpointConfigMatch(t *testing.T) {
	rc := RunConfig{Accesses: 1000, MCAccessesPerThread: 400, Mixes4: 2, Mixes16: 1, Seed: 42}
	ck := NewCheckpoint()

	// Unrecorded config (pre-config checkpoints, fresh checkpoints)
	// matches anything.
	if ok, _ := ck.ConfigMatches(rc); !ok {
		t.Fatal("zero recorded config must match")
	}

	ck.SetConfig(rc)
	if ok, why := ck.ConfigMatches(rc); !ok {
		t.Fatalf("identical config rejected: %s", why)
	}
	for _, tc := range []struct {
		name string
		mut  func(RunConfig) RunConfig
	}{
		{"accesses", func(c RunConfig) RunConfig { c.Accesses++; return c }},
		{"mc-accesses", func(c RunConfig) RunConfig { c.MCAccessesPerThread++; return c }},
		{"mixes4", func(c RunConfig) RunConfig { c.Mixes4++; return c }},
		{"mixes16", func(c RunConfig) RunConfig { c.Mixes16++; return c }},
		{"seed", func(c RunConfig) RunConfig { c.Seed++; return c }},
	} {
		if ok, why := ck.ConfigMatches(tc.mut(rc)); ok {
			t.Fatalf("%s mismatch accepted", tc.name)
		} else if why == "" {
			t.Fatalf("%s mismatch has no reason", tc.name)
		}
	}

	// The config survives the save/load round trip.
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := ck.Save(path, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := loaded.ConfigMatches(rc); !ok {
		t.Fatalf("round-tripped config rejected: %s", why)
	}
	if ok, _ := loaded.ConfigMatches(RunConfig{Accesses: 9}); ok {
		t.Fatal("round-tripped config matched a different run")
	}
}

// FuzzDecodeCheckpoint ensures arbitrary bytes never crash the decoder:
// every input either parses to a valid checkpoint or returns an error.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte(`{"version":1,"completed":{"fig1":{"seconds":1}},"offsets":{"k":5}}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		// A decoded checkpoint must be fully usable.
		c.Done("x")
		c.MarkDone("x", time.Second)
		if !c.Done("x") {
			t.Fatal("MarkDone lost on decoded checkpoint")
		}
	})
}
