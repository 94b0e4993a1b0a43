package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/trace"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("same name must return the same counter")
	}

	g := r.Gauge("g")
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", g.Value())
	}

	h := r.Histogram("h")
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 1
	h.Observe(7) // bucket 3: [4,8)
	h.Observe(8) // bucket 4: [8,16)
	if h.Count() != 4 || h.Sum() != 16 {
		t.Fatalf("count=%d sum=%d, want 4/16", h.Count(), h.Sum())
	}
	want := []uint64{1, 1, 0, 1, 1}
	got := h.snapshot().Log2
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if h.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", h.Mean())
	}
}

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	// None of these may panic, and all must report zero.
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay at 0")
	}
	g := r.Gauge("x")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay at 0")
	}
	h := r.Histogram("x")
	h.Observe(9)
	if h.Count() != 0 || h.snapshot().Log2 != nil {
		t.Fatal("nil histogram must stay empty")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", buf.String(), err)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Gauge("rate").Set(0.5)
	r.Histogram("life").Observe(4)
	r.Histogram("life").Observe(4)
	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf, err)
	}
	if got["hits"] != float64(3) || got["rate"] != 0.5 {
		t.Fatalf("snapshot = %v", got)
	}
	life, ok := got["life"].(map[string]any)
	if !ok {
		t.Fatalf("histogram snapshot = %T", got["life"])
	}
	// One bucket read: count is the bucket sum, and the quantiles come
	// from the same read (both observations sit in bucket [4, 8)).
	for k, want := range map[string]any{"count": 2.0, "sum": 8.0, "mean": 4.0, "log2_buckets": []any{0.0, 0.0, 0.0, 2.0}} {
		if !reflect.DeepEqual(life[k], want) {
			t.Errorf("life.%s = %v, want %v", k, life[k], want)
		}
	}
	for _, q := range []string{"p50", "p90", "p99", "p999"} {
		if v, _ := life[q].(float64); v < 4 || v > 8 {
			t.Errorf("life.%s = %v, want in [4, 8]", q, life[q])
		}
	}
}

func TestJournalRingAndSink(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(4)
	j.SetSink(&buf)
	for i := 0; i < 10; i++ {
		j.Append(EventRecord{Kind: KindBypass, Access: uint64(i), Set: i, Way: -1})
	}
	j.Append(SnapshotRecord{Kind: KindSnapshot, Access: 10})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", j.Len())
	}
	if j.Total() != 11 {
		t.Fatalf("total = %d, want 11", j.Total())
	}
	if j.CountKind(KindBypass) != 10 || j.CountKind(KindSnapshot) != 1 {
		t.Fatalf("counts: bypass=%d snapshot=%d", j.CountKind(KindBypass), j.CountKind(KindSnapshot))
	}

	// Tail returns the most recent records, oldest first.
	tail := j.Tail(2)
	if len(tail) != 2 {
		t.Fatalf("tail len = %d", len(tail))
	}
	if ev, ok := tail[0].(EventRecord); !ok || ev.Access != 9 {
		t.Fatalf("tail[0] = %+v", tail[0])
	}
	if _, ok := tail[1].(SnapshotRecord); !ok {
		t.Fatalf("tail[1] = %+v", tail[1])
	}

	// Every sink line must be valid JSON with a kind field.
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d invalid JSON: %v", lines, err)
		}
		if rec["kind"] == "" || rec["kind"] == nil {
			t.Fatalf("line %d missing kind: %v", lines, rec)
		}
		lines++
	}
	if lines != 11 {
		t.Fatalf("sink lines = %d, want 11", lines)
	}
}

func TestNilJournalIsDisabled(t *testing.T) {
	var j *Journal
	j.Append(SnapshotRecord{Kind: KindSnapshot})
	j.SetSink(&bytes.Buffer{})
	if j.Len() != 0 || j.Total() != 0 || j.Tail(3) != nil || j.CountKind(KindSnapshot) != 0 {
		t.Fatal("nil journal must be empty")
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordKindsMatchFields(t *testing.T) {
	recs := []Record{
		RecomputeRecord{Kind: KindPDRecompute},
		SnapshotRecord{Kind: KindSnapshot},
		EventRecord{Kind: KindBypass},
		EventRecord{Kind: KindProtectedEvict},
		EventRecord{Kind: KindSamplerEvict},
	}
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if m["kind"] != r.RecordKind() {
			t.Fatalf("kind field %q != RecordKind %q", m["kind"], r.RecordKind())
		}
	}
}

// countMonitor counts events per kind.
type countMonitor struct{ n [4]int }

func (m *countMonitor) Event(ev cache.Event) { m.n[ev.Kind]++ }

func TestMultiFansOut(t *testing.T) {
	a, b := &countMonitor{}, &countMonitor{}
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no monitors must be nil")
	}
	if got := Multi(a, nil); got != a {
		t.Fatal("Multi of one monitor must unwrap it")
	}
	m := Multi(a, b)
	c := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 1, LineSize: 64}, cache.NewLRU(1, 1))
	c.SetMonitor(m)
	c.Access(trace.Access{Addr: 0})
	c.Access(trace.Access{Addr: 0})
	c.Access(trace.Access{Addr: 64})
	for _, mon := range []*countMonitor{a, b} {
		if mon.n[cache.EvHit] != 1 || mon.n[cache.EvInsert] != 2 || mon.n[cache.EvEvict] != 1 {
			t.Fatalf("monitor events = %v", mon.n)
		}
	}
}

// tapFixture runs a small PDP-managed cache with a full telemetry pipeline.
func tapFixture(t *testing.T, accesses int, snapshotEvery uint64) (*Tap, *Registry, *Journal, *cache.Cache) {
	t.Helper()
	const sets, ways = 16, 2
	pol := core.New(core.Config{
		Sets: sets, Ways: ways, Bypass: true, RecomputeEvery: 512, DMax: 64, SC: 4,
	})
	c := cache.New(cache.Config{Name: "LLC", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, pol)
	reg := NewRegistry()
	// A ring large enough to retain every record of the run, so tests can
	// inspect payloads via Tail (wraparound is covered separately).
	j := NewJournal(1 << 15)
	tap := NewTap(c, TapConfig{Registry: reg, Journal: j, SnapshotEvery: snapshotEvery, EventSample: 1})
	tap.ObservePolicy(pol)
	ObservePDP(pol, j, 1)
	c.SetMonitor(tap)
	rng := trace.NewRNG(7)
	for i := 0; i < accesses; i++ {
		// A working set larger than the cache: hits, misses and bypasses.
		c.Access(trace.Access{Addr: uint64(rng.Intn(sets*ways*4)) * 64})
	}
	return tap, reg, j, c
}

func TestTapPipeline(t *testing.T) {
	tap, reg, j, c := tapFixture(t, 4000, 1000)

	if got := tap.Accesses(); got != c.Stats.Accesses {
		t.Fatalf("tap accesses = %d, cache = %d", got, c.Stats.Accesses)
	}
	if reg.Counter("LLC.hits").Value() != c.Stats.Hits {
		t.Fatalf("hits counter = %d, stats = %d", reg.Counter("LLC.hits").Value(), c.Stats.Hits)
	}
	if reg.Counter("LLC.bypasses").Value() != c.Stats.Bypasses {
		t.Fatalf("bypass counter = %d, stats = %d", reg.Counter("LLC.bypasses").Value(), c.Stats.Bypasses)
	}
	if reg.Counter("LLC.evictions").Value() != c.Stats.Evictions {
		t.Fatalf("evictions counter = %d, stats = %d", reg.Counter("LLC.evictions").Value(), c.Stats.Evictions)
	}
	if c.Stats.Evictions > 0 && reg.Histogram("LLC.line_lifetime").Count() != c.Stats.Evictions {
		t.Fatalf("lifetime observations = %d, evictions = %d",
			reg.Histogram("LLC.line_lifetime").Count(), c.Stats.Evictions)
	}

	if tap.Snapshots() != 4 {
		t.Fatalf("snapshots = %d, want 4", tap.Snapshots())
	}
	if j.CountKind(KindSnapshot) != 4 {
		t.Fatalf("snapshot records = %d, want 4", j.CountKind(KindSnapshot))
	}
	if c.Stats.Bypasses > 0 && j.CountKind(KindBypass) != c.Stats.Bypasses {
		t.Fatalf("bypass records = %d, bypasses = %d", j.CountKind(KindBypass), c.Stats.Bypasses)
	}
	if j.CountKind(KindPDRecompute) == 0 {
		t.Fatal("expected pd_recompute records (RecomputeEvery=512 over 4000 accesses)")
	}

	// The most recent snapshot must be self-consistent.
	var snap *SnapshotRecord
	for _, r := range j.Tail(j.Len()) {
		if s, ok := r.(SnapshotRecord); ok {
			snap = &s
		}
	}
	if snap == nil {
		t.Fatal("no snapshot in ring")
	}
	if snap.Access != 4000 {
		t.Fatalf("snapshot access = %d, want 4000", snap.Access)
	}
	if snap.HitRate < 0 || snap.HitRate > 1 || snap.ValidFrac <= 0 || snap.ValidFrac > 1 {
		t.Fatalf("snapshot out of range: %+v", snap)
	}
	if snap.PD <= 0 {
		t.Fatalf("snapshot PD = %d, want > 0 (PDProvider wired)", snap.PD)
	}
	if snap.SetSkew < 1 {
		t.Fatalf("set skew = %v, want >= 1", snap.SetSkew)
	}
	if len(snap.Occupancy) != 1 || snap.Occupancy[0] <= 0 || snap.Occupancy[0] > 1 {
		t.Fatalf("occupancy = %v", snap.Occupancy)
	}
}

func TestTapProtectedEvictions(t *testing.T) {
	// Non-bypass PDP: a full set of protected lines forces a protected
	// eviction (paper Fig. 3e), which the tap must journal with the
	// victim's pre-eviction RPD.
	const sets, ways = 1, 2
	pol := core.New(core.Config{Sets: sets, Ways: ways, StaticPD: 64, DMax: 64, SC: 4})
	c := cache.New(cache.Config{Name: "L", Sets: sets, Ways: ways, LineSize: 64}, pol)
	j := NewJournal(16)
	tap := NewTap(c, TapConfig{Journal: j, EventSample: 1})
	tap.ObservePolicy(pol)
	c.SetMonitor(tap)
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: uint64(tag * sets * 64)})
	}
	if j.CountKind(KindProtectedEvict) == 0 {
		t.Fatal("expected protected_evict records")
	}
	for _, r := range j.Tail(j.Len()) {
		if ev, ok := r.(EventRecord); ok && ev.Kind == KindProtectedEvict && ev.RPD <= 0 {
			t.Fatalf("protected_evict without RPD: %+v", ev)
		}
	}
}

func TestObservePDPSamplerEvents(t *testing.T) {
	// A streaming (no-reuse) address pattern never matches sampler FIFO
	// entries, so every insertion after the FIFO fills evicts a valid
	// entry and must be journaled.
	const sets, ways = 16, 2
	pol := core.New(core.Config{Sets: sets, Ways: ways, Bypass: true, RecomputeEvery: 512, DMax: 64, SC: 4})
	c := cache.New(cache.Config{Name: "L", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, pol)
	j := NewJournal(16)
	ObservePDP(pol, j, 1)
	for i := 0; i < 20000; i++ {
		c.Access(trace.Access{Addr: uint64(i) * 64})
	}
	if j.CountKind(KindSamplerEvict) == 0 {
		t.Fatal("expected sampler_fifo_evict records on a streaming access pattern")
	}
	if pol.Sampler().Stats.Evictions == 0 {
		t.Fatal("sampler Stats.Evictions not counted")
	}
}

func TestObservePDPRecomputePayload(t *testing.T) {
	_, _, j, _ := tapFixture(t, 2000, 0)
	found := false
	for _, r := range j.Tail(j.Len()) {
		rec, ok := r.(RecomputeRecord)
		if !ok {
			continue
		}
		found = true
		if rec.Seq == 0 || rec.NewPD <= 0 || rec.Access == 0 {
			t.Fatalf("bad recompute record: %+v", rec)
		}
		if len(rec.RDD) == 0 || len(rec.E) != len(rec.RDD) {
			t.Fatalf("recompute RDD/E missing: rdd=%d e=%d", len(rec.RDD), len(rec.E))
		}
	}
	if !found {
		t.Fatal("no recompute record in ring")
	}
}

func TestTapEventSampling(t *testing.T) {
	const sets, ways = 4, 2
	pol := core.New(core.Config{Sets: sets, Ways: ways, Bypass: true, StaticPD: 64, DMax: 64, SC: 4})
	c := cache.New(cache.Config{Name: "L", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, pol)
	j := NewJournal(1 << 12)
	tap := NewTap(c, TapConfig{Journal: j, EventSample: 8})
	c.SetMonitor(tap)
	rng := trace.NewRNG(3)
	for i := 0; i < 5000; i++ {
		c.Access(trace.Access{Addr: uint64(rng.Intn(sets*ways*8)) * 64})
	}
	if c.Stats.Bypasses == 0 {
		t.Fatal("fixture produced no bypasses")
	}
	want := (c.Stats.Bypasses + 7) / 8
	got := j.CountKind(KindBypass)
	if got != want {
		t.Fatalf("sampled bypass records = %d, want %d of %d", got, want, c.Stats.Bypasses)
	}
}
