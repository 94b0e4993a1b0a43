package kvcache

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"pdp/internal/workload"
)

func snapCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{
		Policy:         PolicyPDP,
		Shards:         4,
		Sets:           32,
		Ways:           4,
		RecomputeEvery: 2048,
		MinSamples:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replay drives a cache-aside client over ops: gets fill on miss, puts
// overwrite, deletes drop. It reports the get/hit counts of the slice.
func replay(c *Cache, ops []workload.Op) (gets, hits uint64) {
	for _, op := range ops {
		key := fmt.Sprintf("k%016x", op.Key)
		switch op.Kind {
		case workload.OpGet:
			gets++
			if _, ok := c.Get(key); ok {
				hits++
			} else {
				c.Put(key, make([]byte, op.Size))
			}
		case workload.OpPut:
			c.Put(key, make([]byte, op.Size))
		case workload.OpDelete:
			c.Delete(key)
		}
	}
	return
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const n = 8000
	mix := workload.ServiceConfig{Keys: 512, ZipfS: 0.9, ValueBytes: 32}
	stream := workload.NewServiceStream(mix, 7)
	ops := make([]workload.Op, 2*n)
	for i := range ops {
		ops[i] = stream.Next()
	}

	// Baseline: one uninterrupted cache over both halves.
	base := snapCache(t)
	replay(base, ops[:n])
	baseGets, baseHits := replay(base, ops[n:])

	// Interrupted: run the first half, snapshot through the wire format,
	// restore into a fresh identical cache, run the second half.
	warm := snapCache(t)
	replay(warm, ops[:n])
	snap := warm.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}

	resumed := snapCache(t)
	restored, err := resumed.Restore(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, ss := range decoded.Shards {
		entries += len(ss.Entries)
	}
	if restored != entries {
		t.Fatalf("restored %d of %d snapshot entries", restored, entries)
	}
	if resumed.PD() != warm.PD() {
		t.Fatalf("PD not preserved: %d != %d", resumed.PD(), warm.PD())
	}
	if err := resumed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	resGets, resHits := replay(resumed, ops[n:])
	if resGets != baseGets {
		t.Fatalf("replay diverged: %d gets vs %d", resGets, baseGets)
	}
	baseHR := float64(baseHits) / float64(baseGets)
	resHR := float64(resHits) / float64(resGets)
	if diff := math.Abs(baseHR - resHR); diff > 0.05 {
		t.Fatalf("warm-restart hit rate %.4f vs uninterrupted %.4f (diff %.4f > 0.05)",
			resHR, baseHR, diff)
	}
	if baseHR == 0 {
		t.Fatal("baseline never hit; the workload is not exercising the cache")
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	warm := snapCache(t)
	warm.Put("a", []byte("x"))
	snap := warm.Snapshot()

	snap.Version = 99
	if _, err := snapCache(t).Restore(snap); err == nil {
		t.Fatal("unknown snapshot version accepted")
	}
	snap.Version = SnapshotVersion

	other, err := New(Config{Policy: PolicyPDP, Shards: 4, Sets: 16, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Restore(snap); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// FuzzRestore decodes arbitrary bytes as a JSON snapshot, the way a
// restarting server reads its snapshot file, and restores it into a fresh
// PDP cache: whatever the file says, Restore must not panic and must leave
// a cache that passes CheckInvariants. The seeds carry the fuzz cache's
// own geometry, so mutations reach the per-entry checks.
func FuzzRestore(f *testing.F) {
	cfg := Config{Policy: PolicyPDP, Shards: 2, Sets: 4, Ways: 2, MaxBytes: 64}
	warm, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprint("k", i%12)
		if _, ok := warm.Get(key); !ok {
			warm.Put(key, []byte(key))
		}
	}
	valid, err := json.Marshal(warm.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	geo := `{"policy":"pdp","shards":2,"sets":4,"ways":2,"d_max":256,"n_c":8,"s_c":4}`
	// A snapshot entry with an empty key: the store must skip it, because
	// a resident line with an empty key fails CheckInvariants.
	f.Add([]byte(`{"version":1,"geometry":` + geo + `,"pd":8,"shards":[{"entries":[{"k":"","v":"eA==","rpd":8}]},{"entries":[{"k":"","v":"eA==","rpd":8}]}]}`))
	f.Add([]byte(`{"version":1,"geometry":` + geo + `,"pd":-3,"shards":[{"entries":[{"k":"a","v":"","rpd":99999,"reused":true}],"counts":[4294967295],"total":1},{}]}`))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if json.Unmarshal(data, &s) != nil {
			return
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restore(&s); err != nil {
			return
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after Restore: %v", err)
		}
	})
}
