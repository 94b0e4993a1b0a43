package workload

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"pdp/internal/trace"
	"pdp/internal/tracefile"
)

var update = flag.Bool("update", false, "rewrite testdata/stream_goldens.json and testdata/service_goldens.json from the generators")

const (
	goldenSeed = 7
	goldenN    = 300_000
)

// streamHash is an FNV-1a over (Addr, PC, Write) of the next n accesses of g.
func streamHash(g trace.Generator, n int) string {
	h := fnv.New64a()
	var rec [17]byte
	for i := 0; i < n; i++ {
		a := g.Next()
		binary.LittleEndian.PutUint64(rec[0:], a.Addr)
		binary.LittleEndian.PutUint64(rec[8:], a.PC)
		rec[16] = 0
		if a.Write {
			rec[16] = 1
		}
		h.Write(rec[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fillHash is streamHash of the next n accesses of g drawn through Fill, in
// blocks of 1, 7 and 256 accesses and then the rest.
func fillHash(g trace.Filler, n int) string {
	accs := make([]trace.Access, n)
	rest := accs
	for _, k := range []int{1, 7, 256, n} {
		k = min(k, len(rest))
		g.Fill(rest[:k])
		rest = rest[k:]
	}
	return streamHash(tracefile.NewGenerator("fill", accs), n)
}

// TestStreamGoldens pins every model's access stream, drawn through Next
// and through Fill. The simulator's pinned statistics
// (bench/testdata/sim_digests.json, repro -scale 0.2) run 2048 sets, where
// a task gives each set ~80 accesses: no RDDGen set fills its 512-entry
// retired ring, so the ring's wrap, the line drop it triggers and a
// duplicate tag in the ring are never executed there. At 4 sets the ring
// wraps ~100 times.
func TestStreamGoldens(t *testing.T) {
	got := map[string]string{}
	for _, b := range append(All(), Phased()...) {
		for _, sets := range []int{4, 2048} {
			k := fmt.Sprintf("%s sets=%d", b.Name, sets)
			g := b.Generator(sets, 0, goldenSeed)
			got[k] = streamHash(g, goldenN)
			g.Reset()
			if again := streamHash(g, goldenN); again != got[k] {
				t.Errorf("%s: stream hash %s after Reset, %s before", k, again, got[k])
			}
			f, ok := b.Generator(sets, 0, goldenSeed).(trace.Filler)
			if !ok {
				t.Errorf("%s: %T has no Fill", k, g)
			} else if filled := fillHash(f, goldenN); filled != got[k] {
				t.Errorf("%s: stream hash %s through Fill, %s through Next", k, filled, got[k])
			}
		}
	}
	checkGoldens(t, "testdata/stream_goldens.json", got)
}

// checkGoldens compares got with the hashes pinned in path, after
// rewriting path from got under -update.
func checkGoldens(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d streams, the generators give %d", path, len(want), len(got))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: stream hash %s, pinned %s", k, g, want[k])
		}
	}
}
