package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number. Samples holds the per-segment (or
// per-repetition) values Value is the median of; Min and Max are their
// spread. N is the number of underlying observations when the value is a
// quantile or a mean of timed calls.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples,omitempty"`
	N       int       `json:"n,omitempty"`
}

type metrics map[string]metric

// set stores a single observation.
func (m metrics) set(name string, v float64) {
	m[name] = metric{Value: v, Min: v, Max: v}
}

// setMedian stores the median of vs with its spread.
func (m metrics) setMedian(name string, vs []float64, n int) {
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m[name] = metric{Value: median(vs), Min: lo, Max: hi, Samples: vs, N: n}
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the exact nearest-rank quantile of sorted: the smallest
// sample with at least a share q of the samples at or below it.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMiB forces a collection and returns what survived it.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// window is one measured interval cut into nSeg equal segments by wall
// clock. Clients attribute what they complete to the segment it completed
// in; every rate and latency is computed per segment and reported as the
// median of the segments, so one disturbed segment cannot move a result.
type window struct {
	start  time.Time
	segLen time.Duration
	// cpu[k] is the process CPU time at the start of segment k (cpu[nSeg]
	// at the end of the window), sampled by watchCPU.
	cpu [nSeg + 1]time.Duration
}

func newWindow(d time.Duration) *window {
	return &window{start: time.Now(), segLen: d / nSeg}
}

// since is the clock every client reads: nanoseconds into the window.
func (w *window) since() int64 { return int64(time.Since(w.start)) }

// watchCPU samples process CPU time at each segment boundary and returns
// once the window has ended.
func (w *window) watchCPU() {
	for k := 0; k <= nSeg; k++ {
		time.Sleep(time.Until(w.start.Add(time.Duration(k) * w.segLen)))
		w.cpu[k] = cpuTime()
	}
}

// segStat is what one client completed in one segment.
type segStat struct {
	ops    uint64 // trace ops (fills are not ops)
	reqs   uint64 // public calls or HTTP exchanges, fills included
	rows   uint64 // ops carried by those requests, fills included
	failed uint64
	lat    []uint32 // timed request durations, ns
}

// observe keeps a timed request's duration while there is room: lat is
// preallocated so that a faster system does not grow the live heap.
func (s *segStat) observe(ns int64) {
	if len(s.lat) < cap(s.lat) {
		s.lat = append(s.lat, uint32(min(ns, math.MaxUint32)))
	}
}

// totals is a window's sum over clients and segments.
type totals struct {
	ops, gets, hits, reqs, rows, failed uint64
	opsPerS                             float64 // the reported median
}

// summarize folds the clients' segments into the window's end-to-end
// numbers and returns the totals the callers cross-check against.
func summarize(w *window, clients []*client, m metrics) totals {
	var t totals
	var opsPS, cpuUS, p50, p90 []float64
	samples := 0
	for k := 0; k < nSeg; k++ {
		var ops uint64
		var lat []uint32
		for _, c := range clients {
			s := &c.seg[k]
			ops += s.ops
			t.reqs, t.rows, t.failed = t.reqs+s.reqs, t.rows+s.rows, t.failed+s.failed
			lat = append(lat, s.lat...)
		}
		t.ops += ops
		slices.Sort(lat)
		samples += len(lat)
		opsPS = append(opsPS, float64(ops)/w.segLen.Seconds())
		cpuUS = append(cpuUS, ratio(float64((w.cpu[k+1]-w.cpu[k]).Microseconds()), float64(ops)))
		p50 = append(p50, quantile(lat, 0.50)/1e3)
		p90 = append(p90, quantile(lat, 0.90)/1e3)
	}
	m.setMedian("ops_per_s", opsPS, int(t.ops))
	t.opsPerS = m["ops_per_s"].Value
	m.setMedian("cpu_us_per_op", cpuUS, int(t.ops))
	m.setMedian("req_p50_us", p50, samples)
	m.setMedian("req_p90_us", p90, samples)
	// The hit rate is not a per-segment median: the looping scan makes it
	// swing along the loop, and a segment of an HTTP workload covers only a
	// part of one. It is taken over each client's first hitOps ops, or over
	// the whole window when a client did not get that far.
	var gets, hits uint64
	for _, c := range clients {
		t.gets, t.hits = t.gets+c.gets, t.hits+c.hits
		if c.prefixGets == 0 {
			c.prefixGets, c.prefixHits = c.gets, c.hits
		}
		gets, hits = gets+c.prefixGets, hits+c.prefixHits
	}
	m.set("hit_rate", ratio(float64(hits), float64(gets)))
	return t
}
