// Package core implements the PDP paper's primary contribution: the
// reuse-distance-based hit-rate model E(d_p) (Sec. 2.4), the protecting
// distance search, and the Protecting Distance based replacement/bypass
// Policy (Sec. 2.2) with the hardware parameters of Sec. 3 (n_c-bit RPDs
// stepped by S_d, S_c-compressed counter arrays, periodic recomputation).
package core

import (
	"sort"

	"pdp/internal/sampler"
)

// Model is the paper's hit-rate model over one counter array, and the only
// place its arithmetic lives. At every counter boundary d_p = Dist(k) it
// holds the two running sums of Eq. (1), hits H and occupancy A, and their
// quotient
//
//	E(d_p) = H/A = sum_{i<=d_p} N_i /
//	         ( sum_{i<=d_p} N_i*i  +  (N_t - sum_{i<=d_p} N_i)*(d_p+d_e) )
//
// E is proportional to the hit rate (the 1/W factor is dropped, as in the
// paper, to remove the dependence on cache organization). The multi-core
// E_m of Eq. (2) is the same H and A summed over threads before dividing
// (see HA). A Model is a snapshot: it does not follow later changes to the
// array it was built from.
type Model struct {
	// E[k] is E(d_p) at d_p = Dist(k); 0 where the occupancy is 0.
	E []float64

	h, a   []float64 // Eq. 1's numerator and denominator at each boundary
	sc     int       // counter step: Dist(k) = (k+1)*sc
	bestPD int       // E's first maximum and where it is; 0, 0 when E is all zero
	bestE  float64
}

// NewModel evaluates Eq. (1) in one pass over arr. de is the eviction-delay
// term d_e (the paper sets it to the associativity W). A corrupted array
// holding more reuses than accesses is read as having no long lines
// (N_t - H clamps at 0). Every sum is an integer far below 2^53 (at most
// N_t*(d_max+d_e)), so the float64 copies HA hands out are exact.
func NewModel(arr *sampler.CounterArray, de int) Model {
	k := arr.K()
	buf := make([]float64, 3*k)
	m := Model{E: buf[:k:k], h: buf[k : 2*k : 2*k], a: buf[2*k:], sc: arr.Sc()}
	var sumN, sumNd uint64
	nt := arr.Total()
	for i := range m.E {
		n := uint64(arr.Count(i))
		d := uint64(arr.Dist(i))
		sumN += n
		sumNd += n * d
		long := uint64(0)
		if nt > sumN {
			long = nt - sumN
		}
		h, a := float64(sumN), float64(sumNd+long*(d+uint64(de)))
		m.h[i], m.a[i] = h, a
		if a == 0 {
			continue
		}
		e := h / a
		m.E[i] = e
		if e > m.bestE {
			m.bestPD, m.bestE = arr.Dist(i), e
		}
	}
	return m
}

// Best returns the protecting distance maximizing E (the smallest, on a
// tie) together with the maximal E value. It returns (0, 0) when the array
// held no reuse information (the caller should then keep its previous PD).
func (m Model) Best() (pd int, e float64) { return m.bestPD, m.bestE }

// Peak is a local maximum of E: a candidate protecting distance for the
// multi-core heuristic (paper Sec. 4 considers the top peaks per thread).
type Peak struct {
	PD int
	E  float64
}

// Peaks returns up to topN local maxima of E, ordered by decreasing E. The
// global maximum is always first.
func (m Model) Peaks(topN int) []Peak {
	ev := m.E
	var peaks []Peak
	for k, v := range ev {
		if v == 0 {
			continue
		}
		left := k == 0 || ev[k-1] < v
		right := k == len(ev)-1 || ev[k+1] <= v
		if left && right {
			peaks = append(peaks, Peak{PD: (k + 1) * m.sc, E: v})
		}
	}
	sort.Slice(peaks, func(i, j int) bool {
		if peaks[i].E != peaks[j].E {
			return peaks[i].E > peaks[j].E
		}
		return peaks[i].PD < peaks[j].PD
	})
	if len(peaks) > topN {
		peaks = peaks[:topN]
	}
	return peaks
}

// HA returns Eq. (1)'s hits H and occupancy A at the first counter boundary
// covering dp (the last one when dp exceeds d_max): one thread's terms of
// the multi-core E_m (paper Eq. 2), which sums them over threads before
// dividing.
func (m Model) HA(dp int) (h, a float64) {
	k := min(max(dp-1, 0)/m.sc, len(m.h)-1)
	return m.h[k], m.a[k]
}

// EValues evaluates the hit-rate approximation E(d_p) of paper Eq. (1) at
// every counter-array boundary d_p = Dist(k); see Model.
func EValues(arr *sampler.CounterArray, de int) []float64 {
	return NewModel(arr, de).E
}

// FindPD returns the protecting distance maximizing E, together with the
// maximal E value; see Model.Best.
func FindPD(arr *sampler.CounterArray, de int) (pd int, e float64) {
	return NewModel(arr, de).Best()
}

// Peaks returns up to topN local maxima of E; see Model.Peaks.
func Peaks(arr *sampler.CounterArray, de, topN int) []Peak {
	return NewModel(arr, de).Peaks(topN)
}
