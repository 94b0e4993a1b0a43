package telemetry

import (
	"math"
	"time"
)

// bucketBounds returns the value range covered by log2 bucket k as floats:
// bucket 0 holds exactly zero, bucket k >= 1 holds [2^(k-1), 2^k). The
// bounds are the interpolation anchors of Quantile.
func bucketBounds(k int) (lo, hi float64) {
	if k == 0 {
		return 0, 0
	}
	lo = math.Ldexp(1, k-1)
	return lo, 2 * lo
}

// Quantile estimates the q-quantile of the observed distribution (q
// clamped to [0, 1]) by locating the log2 bucket holding the target rank
// and interpolating linearly inside it. The estimate is exact at bucket
// boundaries and off by at most the bucket width (a factor of two)
// inside one — the usual precision contract of log-bucketed latency
// histograms. An empty histogram reports 0.
//
// The bucket counters are read without a global lock, so a quantile taken
// while writers are hot is a consistent-enough snapshot: each bucket is
// atomically read once and the total is summed from that same read.
func (h *Histogram) Quantile(q float64) float64 {
	b, n := h.read()
	return quantile(&b, n, q)
}

// quantile is Quantile over one bucket read b whose sum is total.
func quantile(b *[histBuckets]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	// target is the 1-based rank of the quantile observation.
	target := max(q*float64(total), 1)
	var cum uint64
	for k, c := range b {
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= target {
			lo, hi := bucketBounds(k)
			frac := (target - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi // unreachable: target <= total by construction
}

// QuantileSummary is the standard latency digest: the quartet of
// percentiles an operator reads first.
type QuantileSummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// Summary returns p50/p90/p99/p999 from one read of the buckets.
func (h *Histogram) Summary() QuantileSummary {
	b, n := h.read()
	return summarize(&b, n)
}

func summarize(b *[histBuckets]uint64, total uint64) QuantileSummary {
	return QuantileSummary{
		P50:  quantile(b, total, 0.50),
		P90:  quantile(b, total, 0.90),
		P99:  quantile(b, total, 0.99),
		P999: quantile(b, total, 0.999),
	}
}

// Timer measures one interval at nanosecond scale for recording into a
// Histogram: start with StartTimer, stop with ObserveInto. The zero Timer
// is invalid; always construct through StartTimer.
type Timer struct{ t0 time.Time }

// StartTimer begins timing now.
func StartTimer() Timer { return Timer{t0: time.Now()} }

// ObserveInto records the nanoseconds elapsed since StartTimer into h
// (nil-safe, like all histogram operations) and returns the duration so
// callers can reuse the measurement.
func (t Timer) ObserveInto(h *Histogram) time.Duration {
	d := time.Since(t.t0)
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
	return d
}
