package telemetry

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the log2 bucket geometry the
// quantile math and the Prometheus le bounds both build on: bucket 0 is
// exactly v == 0, bucket k is [2^(k-1), 2^k), and the top bucket (64)
// absorbs the maximal uint64 without overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 62, 63}, {1<<63 - 1, 63},
		{1 << 63, 64}, {math.MaxUint64, 64},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		got := h.snapshot().Log2
		if len(got) != c.bucket+1 || got[c.bucket] != 1 {
			t.Fatalf("Observe(%d): buckets %v, want single count in bucket %d", c.v, got, c.bucket)
		}
	}

	// Observe(0) must not shift the sum or the count.
	var h Histogram
	h.Observe(0)
	h.Observe(0)
	if h.Count() != 2 || h.Sum() != 0 {
		t.Fatalf("two zeros: count=%d sum=%d", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("all-zero histogram p99 = %v, want 0", q)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}

	// 100 observations of 1000 (bucket 10: [512, 1024)): every quantile
	// interpolates inside that one bucket, so the estimate is within the
	// bucket bounds and monotone in q.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < 512 || p50 >= 1024 || p99 < 512 || p99 >= 1024 {
		t.Fatalf("p50=%v p99=%v escaped bucket [512,1024)", p50, p99)
	}
	if p99 < p50 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}

	// Bimodal: 90 fast (bucket [2,4)), 10 slow (bucket [1024,2048)).
	// p50 must land in the fast mode, p99 in the slow one.
	var b Histogram
	for i := 0; i < 90; i++ {
		b.Observe(3)
	}
	for i := 0; i < 10; i++ {
		b.Observe(1500)
	}
	if q := b.Quantile(0.5); q < 2 || q >= 4 {
		t.Fatalf("bimodal p50 = %v, want in [2,4)", q)
	}
	if q := b.Quantile(0.99); q < 1024 || q >= 2048 {
		t.Fatalf("bimodal p99 = %v, want in [1024,2048)", q)
	}

	// Out-of-range q clamps instead of panicking; a nil histogram is 0.
	if b.Quantile(-1) > b.Quantile(2) {
		t.Fatal("clamped quantiles inverted")
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}

	s := b.Summary()
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 {
		t.Fatalf("summary not monotone: %+v", s)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("kv.gets").Add(7)
	r.Counter(`http.requests{route="/kv/",method="GET",status="200"}`).Add(3)
	r.Counter(`http.requests{route="/kv/",method="PUT",status="204"}`).Add(2)
	r.Gauge("kv.pd").Set(44)
	h := r.Histogram(`http.latency_ns{route="/kv/"}`)
	h.Observe(0)
	h.Observe(1)
	h.Observe(3)
	h.Observe(1000)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE kv_gets counter\nkv_gets 7\n",
		"# TYPE http_requests counter\n",
		`http_requests{route="/kv/",method="GET",status="200"} 3`,
		`http_requests{route="/kv/",method="PUT",status="204"} 2`,
		"# TYPE kv_pd gauge\nkv_pd 44\n",
		"# TYPE http_latency_ns histogram\n",
		`http_latency_ns_bucket{route="/kv/",le="0"} 1`,
		`http_latency_ns_bucket{route="/kv/",le="1"} 2`,
		`http_latency_ns_bucket{route="/kv/",le="3"} 3`,
		`http_latency_ns_bucket{route="/kv/",le="1023"} 4`,
		`http_latency_ns_bucket{route="/kv/",le="+Inf"} 4`,
		`http_latency_ns_sum{route="/kv/"} 1004`,
		`http_latency_ns_count{route="/kv/"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exactly one TYPE line per family, even with multiple labeled series.
	if n := strings.Count(out, "# TYPE http_requests "); n != 1 {
		t.Fatalf("%d TYPE lines for http_requests, want 1", n)
	}
	// The whole page must satisfy our own linter.
	if err := LintProm(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, out)
	}

	// Nil registry writes nothing.
	var nilReg *Registry
	var empty bytes.Buffer
	if err := nilReg.WriteProm(&empty); err != nil || empty.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", empty.String(), err)
	}
}

// TestRegistryViews covers read-time metrics: a view's series appear in
// Snapshot and WriteProm exactly like stored ones (one TYPE line per
// family, labelled series grouped under it, lint-clean), are evaluated
// afresh on every read, and shadow a stored metric of the same name
// whichever was registered first.
func TestRegistryViews(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup.before").Add(5) // stored first, shadowed by the view
	n := uint64(0)
	r.View(func(m Samples) {
		n++
		m.Counter("view.reads", n)
		m.Counter(`view.shard{shard="1"}`, 11)
		m.Counter(`view.shard{shard="0"}`, 10)
		m.Gauge("view.level", 0.5)
		m.Counter("dup.before", 9)
		m.Counter("dup.after", 8)
	})
	r.Counter("dup.after").Add(5) // stored second, shadowed all the same
	r.Counter("stored").Add(1)

	snap := r.Snapshot()
	for name, want := range map[string]any{
		"view.reads": uint64(1), `view.shard{shard="0"}`: uint64(10), `view.shard{shard="1"}`: uint64(11),
		"view.level": 0.5, "dup.before": uint64(9), "dup.after": uint64(8), "stored": uint64(1),
	} {
		if snap[name] != want {
			t.Errorf("snapshot[%q] = %v, want %v", name, snap[name], want)
		}
	}
	if got := r.Snapshot()["view.reads"]; got != uint64(2) {
		t.Errorf("second snapshot read view.reads = %v, want 2 (views evaluate per read)", got)
	}
	var names []string
	for name := range r.Snapshot() {
		names = append(names, name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), `dup.after dup.before stored view.level view.reads view.shard{shard="0"} view.shard{shard="1"}`; got != want {
		t.Errorf("names = %s\n want = %s", got, want)
	}

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE view_shard counter\nview_shard{shard=\"0\"} 10\nview_shard{shard=\"1\"} 11\n",
		"# TYPE view_level gauge\nview_level 0.5\n",
		"# TYPE dup_before counter\ndup_before 9\n",
		"# TYPE dup_after counter\ndup_after 8\n",
		"# TYPE stored counter\nstored 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintProm(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition with views fails lint: %v\n%s", err, out)
	}

	var nilReg *Registry
	nilReg.View(func(Samples) { t.Error("nil registry evaluated a view") })
	if nilReg.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
}

func TestSanitizeProm(t *testing.T) {
	cases := map[string]string{
		"kv.gets":      "kv_gets",
		"http-latency": "http_latency",
		"9lives":       "_9lives",
		"ok_name:sub":  "ok_name:sub",
		// Sanitization is byte-wise: each byte of a multi-byte rune maps
		// to its own underscore (2+2+3 bytes for "éé—").
		"spaces and/éé—": "spaces_and________",
		"":               "_",
	}
	for in, want := range cases {
		if got := sanitizeProm(in); got != want {
			t.Fatalf("sanitizeProm(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLintPromRejectsMalformed(t *testing.T) {
	bad := []string{
		"kv_gets 7\n",                          // sample before TYPE
		"# TYPE kv_gets counter\nkv_gets x\n",  // bad value
		"# TYPE kv_gets counter\nkv gets 1\n",  // bad name
		"# TYPE a counter\n# TYPE a counter\n", // duplicate TYPE
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n", // not cumulative
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\n",                                                // missing +Inf
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n",                                             // count disagrees
	}
	for i, page := range bad {
		if err := LintProm(strings.NewReader(page)); err == nil {
			t.Fatalf("malformed page %d accepted:\n%s", i, page)
		}
	}
	good := "# TYPE up gauge\nup 1\n# HELP up liveness\n"
	if err := LintProm(strings.NewReader(good)); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
}

// TestConcurrentSnapshotAndWriteProm hammers one registry from writer
// goroutines while readers snapshot and scrape — run under -race, this is
// the data-race guard for the /metrics path.
func TestConcurrentSnapshotAndWriteProm(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hot.counter")
			g := r.Gauge("hot.gauge")
			h := r.Histogram(`hot.hist{w="x"}`)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(uint64(i % 4096))
				if i%512 == 0 {
					// Writers also create fresh names to race the map.
					r.Counter("hot.counter").Inc()
				}
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	var lastCount uint64
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		if err := LintProm(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("scrape under load fails lint: %v\n%s", err, buf.String())
		}
		snap := r.Snapshot()
		cur, _ := snap["hot.counter"].(uint64)
		if cur < lastCount {
			t.Fatalf("counter went backwards: %d -> %d", lastCount, cur)
		}
		lastCount = cur
		// A histogram entry is one bucket read: its count is the bucket
		// sum even while writers are hot.
		h, _ := snap[`hot.hist{w="x"}`].(histSnapshot)
		var sum uint64
		for _, c := range h.Log2 {
			sum += c
		}
		if h.Count != sum {
			t.Fatalf("snapshot count %d != bucket sum %d under load", h.Count, sum)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPromLabelEscaping pins the label-value escaping contract: peer
// addresses and other runtime strings — including quotes, backslashes and
// newlines — must render as valid exposition text, whether they were
// minted through Label or pasted raw into a registry name.
func TestPromLabelEscaping(t *testing.T) {
	r := NewRegistry()
	// The well-behaved path: a peer address via the Label helper.
	r.Counter(`cluster.peer_requests{` + Label("peer", "127.0.0.1:8081") + `}`).Add(3)
	// Hostile values via Label: quote, backslash, newline.
	r.Counter(`cluster.peer_requests{` + Label("peer", `evil"peer`) + `}`).Add(1)
	r.Counter(`cluster.peer_requests{` + Label("peer", `back\slash`) + `}`).Add(1)
	r.Counter(`cluster.peer_requests{` + Label("peer", "line\nbreak") + `}`).Add(1)
	// The raw path: labels pasted into the name without escaping must be
	// repaired by the encoder, not emitted broken.
	r.Counter("raw.counter{v=\"a\"b\"}").Inc()
	r.Counter("raw.counter{v=\"new\nline\"}").Inc()
	r.Gauge(`cluster.peer_up{` + Label("peer", "127.0.0.1:8081") + `}`).Set(1)
	r.Histogram(`cluster.peer_latency_ns{` + Label("peer", "127.0.0.1:8081") + `}`).Observe(100)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if err := LintProm(strings.NewReader(page)); err != nil {
		t.Fatalf("escaped labels fail lint: %v\n%s", err, page)
	}
	for _, want := range []string{
		`cluster_peer_requests{peer="127.0.0.1:8081"} 3`,
		`cluster_peer_requests{peer="evil\"peer"} 1`,
		`cluster_peer_requests{peer="back\\slash"} 1`,
		`cluster_peer_requests{peer="line\nbreak"} 1`,
		`raw_counter{v="a\"b"} 1`,
		`raw_counter{v="new\nline"} 1`,
		`cluster_peer_up{peer="127.0.0.1:8081"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("missing %q in:\n%s", want, page)
		}
	}
	// No literal (unescaped) newline may survive inside a sample line.
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, "break\"") && !strings.Contains(line, `\nbreak`) {
			t.Fatalf("unescaped newline leaked: %q", line)
		}
	}
}

// TestLabelIdempotent: escaping an already-escaped block through the
// encoder must not double the backslashes.
func TestPromLabelEscapingIdempotent(t *testing.T) {
	r := NewRegistry()
	// Label escapes once; normalizeLabels must unescape-then-reescape,
	// leaving the block byte-identical.
	name := `x.y{` + Label("v", `a"b\c`) + `}`
	r.Counter(name).Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `x_y{v="a\"b\\c"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("want %q in:\n%s", want, buf.String())
	}
}
