package experiments

import (
	"testing"

	"pdp/internal/metrics"
	"pdp/internal/workload"
)

// TestHeadlineClaims pins the paper's qualitative headline results at
// reduced scale, so regressions in any substrate that would flip a
// conclusion fail loudly. Thresholds are deliberately loose — they assert
// signs and orderings, not absolute numbers.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("slow headline regression")
	}
	const n = 500_000
	recompute := uint64(50_000)

	// One stream per benchmark drives every policy: DIP (the base), PDP-8,
	// DRRIP and EELRU, plus SDP where the paper says it wins.
	const dip, pdp8, drrip, eelru, sdp = 0, 1, 2, 3, 4
	sdpWins := map[string]bool{"437.leslie3d": true, "459.GemsFDTD": true}
	imps := make([][]float64, eelru+1)
	for _, b := range workload.Suite() {
		specs := []PolicySpec{specDIP(), specPDP(8, recompute), specDRRIP(1.0 / 32), specEELRU()}
		if sdpWins[b.Name] {
			specs = append(specs, specSDP())
		}
		rs := RunMany(b, specs, n, 1, TelemetryOptions{})
		for p := pdp8; p <= eelru; p++ {
			imps[p] = append(imps[p], metrics.Improvement(rs[p].IPC, rs[dip].IPC))
		}
		if !sdpWins[b.Name] {
			continue
		}
		// Paper Sec. 6.2: SDP wins on the PC-predictable benchmarks.
		if rs[sdp].IPC <= rs[dip].IPC {
			t.Errorf("%s: SDP (%.4f) must beat DIP (%.4f)", b.Name, rs[sdp].IPC, rs[dip].IPC)
		}
		if rs[sdp].IPC < rs[pdp8].IPC {
			t.Errorf("%s: SDP (%.4f) should beat PDP-8 (%.4f) per the paper", b.Name, rs[sdp].IPC, rs[pdp8].IPC)
		}
	}
	pdp, drr, eel := metrics.Mean(imps[pdp8]), metrics.Mean(imps[drrip]), metrics.Mean(imps[eelru])

	// Paper Sec. 6.2: PDP-8 improves ~4.2% over DIP and clearly beats
	// DRRIP; EELRU degrades significantly.
	if pdp < 0.02 {
		t.Errorf("PDP-8 average IPC improvement over DIP = %.3f, want >= 0.02", pdp)
	}
	if pdp < drr+0.02 {
		t.Errorf("PDP-8 (%.3f) must clearly beat DRRIP (%.3f)", pdp, drr)
	}
	if eel > 0 {
		t.Errorf("EELRU average improvement %.3f; the paper reports degradation", eel)
	}
	t.Logf("average IPC change over DIP: PDP-8 %.6f, DRRIP %.6f, EELRU %.6f", pdp, drr, eel)

	// Paper Sec. 2.3: the bypass variant beats non-bypass on h264ref.
	{
		b, _ := workload.ByName("464.h264ref")
		pds := []int{32, 48, 64, 80}
		rs := RunMany(b, append(sweep(pds, spdpNB), sweep(pds, spdpB)...), n, 1, TelemetryOptions{})
		nb, _, rs := best(rs, pds)
		bp, _, _ := best(rs, pds)
		if bp.Stats.Misses > nb.Stats.Misses {
			t.Errorf("h264ref: SPDP-B (%d misses) must not lose to SPDP-NB (%d)",
				bp.Stats.Misses, nb.Stats.Misses)
		}
	}
}

// TestMulticoreHeadline pins the Fig. 12 shape at reduced scale: PD-based
// partitioning with fine-grained RPDs beats TA-DRRIP on average.
func TestMulticoreHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow headline regression")
	}
	const perThread = 300_000
	mixes := workload.Mixes(4, 5, 42+4)
	interval := uint64(perThread * 4 / 4)

	var deltas []float64
	for _, m := range mixes {
		single := make([]float64, len(m.Benchs))
		for tt, b := range m.Benchs {
			single[tt] = SingleIPC(b, 4, perThread, 42)
		}
		runs := RunMix(m, []MCPolicySpec{mcTADRRIP(), mcPDPPart(8, interval)}, perThread, 42+uint64(m.ID), TelemetryOptions{})
		eval := func(r MixResult) float64 {
			w, err := metrics.WeightedIPC(r.IPC, single)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		base, pdp := eval(runs[0]), eval(runs[1])
		deltas = append(deltas, metrics.Improvement(pdp, base))
	}
	if avg := metrics.Mean(deltas); avg < 0 {
		t.Errorf("PDP-8 partitioning average dW = %.3f vs TA-DRRIP, want >= 0", avg)
	}
}
