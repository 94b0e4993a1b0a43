package kvcache

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/serving_digests.json from the replays")

// The serving benchmark's direct workloads at its full size, copied as
// literals from bench/spec.go and bench/serving.go: two clients, a
// 16 × 1024 × 8 cache, 2^19 warm ops per client, ExecBatch groups of 32.
const (
	digestClients = 2
	digestKeys    = 1_000_000
	digestWarm    = 1 << 19
	digestBatch   = 32
	// digestPrefix is how many ops per client each replay pins after warm.
	digestPrefix = 1 << 17
)

// servingReplay is one workload that runs against kvcache directly.
type servingReplay struct {
	name     string
	mix      workload.ServiceConfig
	maxBytes int64
	batch    bool // ExecBatch groups, not one call per op
}

var servingReplays = []servingReplay{
	{"cache_read", workload.ServiceConfig{Keys: digestKeys, ZipfS: 0.99, PutFrac: 0.05,
		ScanEvery: 300, ScanLen: 300, ScanLoop: 200_000}, 0, false},
	{"cache_write", workload.ServiceConfig{Keys: digestKeys, ZipfS: 0.99, PutFrac: 0.5,
		DeleteFrac: 0.05, ChurnEvery: 50}, 2 << 20, true},
}

// benchCacheConfig is bench/env.go's cacheConfig: pdpcached's shipped
// defaults at the benchmark's geometry, minus the journal.
func benchCacheConfig(maxBytes int64) Config {
	return Config{
		Policy: PolicyPDP, Shards: 16, Sets: 1024, Ways: 8, MaxBytes: maxBytes,
		DMax: 256, NC: 8, SC: 4,
		RecomputeEvery: 64 * 1024, EpochDecayShift: 1, MinSamples: 64,
		RearmAfter: 3, RecomputeTimeout: 2 * time.Second,
		LockHoldWarn: 250 * time.Millisecond, HoldSampleEvery: 64,
		Registry: telemetry.NewRegistry(),
	}
}

// digestTrace is bench/trace.go's genTrace: client w draws from the mix
// with seed 1+w, and loops over its own half of the scan pool.
func digestTrace(mix workload.ServiceConfig, w, n int) []workload.Op {
	mix.ScanLoop /= digestClients
	s := workload.NewServiceStream(mix, 1+uint64(w))
	ops := make([]workload.Op, n)
	for i := range ops {
		op := s.Next()
		if op.Key&(1<<62) != 0 {
			op.Key += uint64(w * mix.ScanLoop)
		}
		ops[i] = op
	}
	return ops
}

// digestMix64 is the splitmix64 finalizer the bench spreads key ids with.
func digestMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const digestStride = 0x9e3779b97f4a7c15

// digestValue is the bench's value for key id: 64 B to 1 KiB, a pure
// function of the id, so a hit can be checked byte for byte.
func digestValue(dst []byte, id uint64) []byte {
	size := [...]int{64, 128, 256, 512, 1024}[digestMix64(id)%5]
	w := digestMix64(id ^ digestStride)
	for n := size / 8; n > 0; n-- {
		dst = binary.LittleEndian.AppendUint64(dst, w)
		w += digestStride
	}
	return dst
}

// digestKey renders id the way the bench and pdpload do: "k" and 16 hex
// digits.
func digestKey(id uint64) string {
	const hex = "0123456789abcdef"
	var b [17]byte
	b[0] = 'k'
	for i := 16; i > 0; i, id = i-1, id>>4 {
		b[i] = hex[id&15]
	}
	return string(b[:])
}

// replayer drives one cache on one goroutine and hashes every result.
type replayer struct {
	t          *testing.T
	c          *Cache
	h          uint64 // FNV-1a of the results so far
	gets, hits uint64
	vb, pb     []byte // the expected value of a hit, the value of a put
}

func (r *replayer) record(b byte) { r.h = (r.h ^ uint64(b)) * 1099511628211 }

func (r *replayer) checkHit(id uint64, v []byte) {
	r.vb = digestValue(r.vb[:0], id)
	if string(v) != string(r.vb) {
		r.t.Fatalf("key %#x: a hit returned %d bytes that were never put", id, len(v))
	}
}

// warm is bench/env.go's warm: cache-aside per op, nothing recorded.
func (r *replayer) warm(op workload.Op) {
	key := digestKey(op.Key)
	switch op.Kind {
	case workload.OpGet:
		if _, hit := r.c.Get(key); hit {
			return
		}
		fallthrough
	case workload.OpPut:
		r.pb = digestValue(r.pb[:0], op.Key)
		r.c.Put(key, r.pb)
	case workload.OpDelete:
		r.c.Delete(key)
	}
}

// perOp is bench/serving.go's runPerOp against the cache: a GET miss is
// followed by a cache-aside fill.
func (r *replayer) perOp(op workload.Op) {
	key := digestKey(op.Key)
	switch op.Kind {
	case workload.OpGet:
		r.gets++
		v, hit := r.c.Get(key)
		if hit {
			r.hits++
			r.checkHit(op.Key, v)
			r.record(1)
			return
		}
		r.record(0)
		fallthrough
	case workload.OpPut:
		r.pb = digestValue(r.pb[:0], op.Key)
		r.record(b2u(r.c.Put(key, r.pb)) | 2)
	case workload.OpDelete:
		r.record(b2u(r.c.Delete(key)) | 4)
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

var digestBatchKind = [...]BatchOpKind{workload.OpGet: BatchGet,
	workload.OpPut: BatchPut, workload.OpDelete: BatchDelete}

// batch is bench/serving.go's runBatch step against ExecBatch: the fill
// PUTs of the previous group's misses lead, then the group's trace ops.
// It returns the fills for the next group.
func (r *replayer) batch(fills, group []workload.Op) []workload.Op {
	rows := append(fills, group...)
	ops := make([]BatchOp, len(rows))
	r.pb = r.pb[:0]
	for i, op := range rows {
		ops[i] = BatchOp{Kind: digestBatchKind[op.Kind], Key: digestKey(op.Key)}
		if op.Kind == workload.OpPut {
			// The group's values share an arena; a grown arena leaves the
			// earlier slices pointing into the old one, which is still theirs.
			n := len(r.pb)
			r.pb = digestValue(r.pb, op.Key)
			ops[i].Value = r.pb[n:]
		}
	}
	res := make([]BatchResult, len(rows))
	r.c.ExecBatch(ops, res, nil)
	var next []workload.Op
	for i, op := range rows {
		r.record(byte(res[i].Status))
		if op.Kind != workload.OpGet {
			continue
		}
		r.gets++
		switch res[i].Status {
		case BatchHit:
			r.hits++
			r.checkHit(op.Key, res[i].Value)
		case BatchMiss:
			next = append(next, workload.Op{Kind: workload.OpPut, Key: op.Key})
		}
	}
	return next
}

type servingDigest struct {
	Digest  string  `json:"digest"`
	Gets    uint64  `json:"gets"`
	Hits    uint64  `json:"hits"`
	HitRate float64 `json:"hit_rate"`
}

// replayServing warms a fresh cache the way the bench does, then replays
// digestPrefix ops of each client, the clients taking turns op by op (or
// group by group), and digests every result.
func replayServing(t *testing.T, rp servingReplay) servingDigest {
	c, err := New(benchCacheConfig(rp.maxBytes))
	if err != nil {
		t.Fatal(err)
	}
	var traces [digestClients][]workload.Op
	for w := range traces {
		traces[w] = digestTrace(rp.mix, w, digestWarm+digestPrefix)
	}
	r := &replayer{t: t, c: c, h: 14695981039346656037}
	for i := 0; i < digestWarm; i++ {
		for w := range traces {
			r.warm(traces[w][i])
		}
	}
	if rp.batch {
		var fills [digestClients][]workload.Op
		for i := digestWarm; i < digestWarm+digestPrefix; i += digestBatch {
			for w := range traces {
				fills[w] = r.batch(fills[w], traces[w][i:i+digestBatch])
			}
		}
	} else {
		for i := digestWarm; i < digestWarm+digestPrefix; i++ {
			for w := range traces {
				r.perOp(traces[w][i])
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", rp.name, err)
	}
	return servingDigest{Digest: fmt.Sprintf("%016x", r.h), Gets: r.gets, Hits: r.hits,
		HitRate: float64(r.hits) / float64(r.gets)}
}

// TestServingDigests pins what cache_read and cache_write do to the
// cache, op by op: a change to kvcache, its policy or the serving
// generator that moves any hit, admission or delete shows here without a
// timed run. Rewrite testdata/serving_digests.json with -update only for
// a change that means to move decisions.
func TestServingDigests(t *testing.T) {
	const path = "testdata/serving_digests.json"
	got := map[string]servingDigest{}
	for _, rp := range servingReplays {
		got[rp.name] = replayServing(t, rp)
		t.Logf("%s: digest %s, hit rate %.4f over %d gets", rp.name,
			got[rp.name].Digest, got[rp.name].HitRate, got[rp.name].Gets)
	}
	if *updateDigests {
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
	var want map[string]servingDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d workloads, the replays give %d", path, len(want), len(got))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: got %+v, pinned %+v", k, g, want[k])
		}
	}
}
