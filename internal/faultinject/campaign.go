package faultinject

import (
	"fmt"
	"io"
	"math"
	"slices"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/experiments"
	"pdp/internal/parallel"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// The campaign's fixed parameters: the policy under test is PDP-8 with
// the figures' recompute period (experiments.RecomputeEvery), and faults
// stop halfway through the measured window so re-convergence is
// observable.
const (
	// campaignNC is the PDP RPD width in bits.
	campaignNC = 8
	// hitRateEnvelope is the maximum allowed |clean - faulty| hit-rate
	// difference (absolute).
	hitRateEnvelope = 0.15
	// reconvergeWindows is how many recompute windows after the fault
	// window the faulty PD trajectory may take to rejoin the reference one.
	reconvergeWindows = 3
	// pdTolerance is the |reference - faulty| PD slack that still counts
	// as converged.
	pdTolerance = 4
)

// CampaignConfig configures one fault campaign: a clean run of a
// benchmark under a dynamic PDP policy, and a run of the trace-faulted
// stream through two caches, a reference with no policy faults and the
// faulty one, followed by the graceful-degradation checks (PD bounds,
// hit-rate envelope against the clean run, PD re-convergence to the
// reference after the fault window closes).
type CampaignConfig struct {
	// Bench is the workload under test.
	Bench workload.Benchmark
	// Spec is the fault specification. Its Until field is overridden so
	// both runs stop injecting after the first half of the measured window.
	Spec Spec
	// Accesses is the measured window length.
	Accesses int
	// Seed fixes the workload streams (the injector seeds come from Spec).
	Seed uint64
	// Journal receives fault, recovery and telemetry events (nil disables).
	// It is safe to share across the campaign's concurrent runs (the journal
	// serializes appends internally).
	Journal *telemetry.Journal
	// Jobs bounds the campaign's run concurrency: with Jobs >= 2 the clean
	// and the faulted runs execute on separate workers (they share no
	// mutable state beyond the journal). 0 or 1 keeps them serial; < 0
	// selects GOMAXPROCS. The report is identical either way.
	Jobs int
}

// CampaignReport is the outcome of a fault campaign.
type CampaignReport struct {
	// Clean ran the clean stream; Reference and Faulty ran the
	// trace-faulted stream, Faulty alone with policy faults.
	Clean, Reference, Faulty experiments.RunResult
	// CleanPDs, ReferencePDs and FaultyPDs are the PD trajectories (one
	// entry per recompute in the measured window).
	CleanPDs, ReferencePDs, FaultyPDs []int
	// FaultCounts counts injected faults by site; TotalFaults is their sum.
	FaultCounts map[string]uint64
	TotalFaults uint64
	// Violations are PD-bounds invariant violations observed in any run.
	Violations []string
	// HitRateDelta is |clean - faulty| hit rate; Envelope the allowed max.
	HitRateDelta, Envelope float64
	EnvelopeOK             bool
	// FaultEndSeq is the 1-based recompute ordinal at which the fault
	// window had closed; ReconvergedAt the ordinal where the faulty PD
	// trajectory rejoined the reference one (-1: never).
	FaultEndSeq, ReconvergedAt int
	// ReconvergeOK reports re-convergence within reconvergeWindows
	// recompute windows.
	ReconvergeOK bool
}

// Passed reports whether every campaign invariant held.
func (r CampaignReport) Passed() bool {
	return len(r.Violations) == 0 && r.EnvelopeOK && r.ReconvergeOK
}

// Render writes a human-readable campaign summary.
func (r CampaignReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fault campaign: %s under %s\n", r.Clean.Bench, r.Clean.Policy)
	fmt.Fprintf(w, "  clean    : hit rate %.4f  MPKI %.3f  PDs %v\n", r.Clean.Stats.HitRate(), r.Clean.MPKI, r.CleanPDs)
	fmt.Fprintf(w, "  reference: hit rate %.4f  MPKI %.3f  PDs %v\n", r.Reference.Stats.HitRate(), r.Reference.MPKI, r.ReferencePDs)
	fmt.Fprintf(w, "  faulty   : hit rate %.4f  MPKI %.3f  PDs %v\n", r.Faulty.Stats.HitRate(), r.Faulty.MPKI, r.FaultyPDs)
	fmt.Fprintf(w, "  faults injected: %d %v\n", r.TotalFaults, r.FaultCounts)
	fmt.Fprintf(w, "  hit-rate delta %.4f (envelope %.4f): ok=%v\n", r.HitRateDelta, r.Envelope, r.EnvelopeOK)
	fmt.Fprintf(w, "  PD re-convergence: fault window closed at recompute %d, reconverged at %d: ok=%v\n",
		r.FaultEndSeq, r.ReconvergedAt, r.ReconvergeOK)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	fmt.Fprintf(w, "  verdict: passed=%v\n", r.Passed())
}

// RunCampaign executes the campaign. Every run shares the workload seed, so
// any divergence is attributable to the injected faults alone. A flipped
// trace address leaves state in the sampler that outlives the fault
// window, so the PD re-convergence check compares the faulty cache with
// the reference cache, which sees the same faulted stream without the
// policy faults; the hit-rate envelope still compares with the clean run.
func RunCampaign(cfg CampaignConfig) (CampaignReport, error) {
	if cfg.Bench.Build == nil {
		return CampaignReport{}, fmt.Errorf("faultinject: campaign needs a benchmark")
	}
	if cfg.Accesses <= 0 {
		return CampaignReport{}, fmt.Errorf("faultinject: campaign needs a positive access window")
	}
	if !cfg.Spec.Enabled() {
		return CampaignReport{}, fmt.Errorf("faultinject: campaign spec injects nothing")
	}
	recompute := experiments.RecomputeEvery(cfg.Accesses)
	faultAccesses := uint64(cfg.Accesses) / 2

	spec := experiments.PolicySpec{
		Name: fmt.Sprintf("PDP-%d", campaignNC), Bypass: true,
		New: func(s, w int, _ uint64) cache.Policy {
			return core.New(core.Config{Sets: s, Ways: w, NC: campaignNC, Bypass: true, RecomputeEvery: recompute})
		},
	}

	// The fault window: the trace wrapper's clock counts every record it
	// emits, warm-up included, while the PDP injector attaches after
	// warm-up — so the two fault windows close at the same architectural
	// point only when the trace Until is offset by the warm-up length.
	warm := uint64(experiments.Warmup(cfg.Accesses))
	traceSpec, polSpec := cfg.Spec, cfg.Spec
	traceSpec.Until = warm + faultAccesses
	polSpec.Until = faultAccesses
	rep := NewReporter(cfg.Journal)

	// The clean run and the faulted run share only the (internally
	// synchronized) journal, so with Jobs >= 2 they execute concurrently.
	// The faulted run's Attach sees the reference cache first, then the
	// faulty one (spec order).
	var clean, ref, faulty experiments.RunResult
	var cleanChk, refChk, faultyChk *Checker
	runs := []func(){
		func() {
			clean = experiments.RunMany(cfg.Bench, []experiments.PolicySpec{spec}, cfg.Accesses, cfg.Seed, experiments.TelemetryOptions{
				Attach: func(_ *cache.Cache, pol cache.Policy) cache.Monitor {
					cleanChk = NewChecker(pol.(*core.PDP))
					return nil
				},
			})[0]
		},
		func() {
			out := experiments.RunMany(WrapBenchmark(cfg.Bench, traceSpec, rep), []experiments.PolicySpec{spec, spec}, cfg.Accesses, cfg.Seed, experiments.TelemetryOptions{
				Journal: cfg.Journal,
				Attach: func(_ *cache.Cache, pol cache.Policy) cache.Monitor {
					p := pol.(*core.PDP)
					if refChk == nil {
						refChk = NewChecker(p)
						return nil
					}
					faultyChk = NewChecker(p)
					return NewInjector(polSpec, 1, rep).Monitor(p)
				},
			})
			ref, faulty = out[0], out[1]
		},
	}
	jobs := cfg.Jobs
	if jobs == 0 {
		jobs = 1
	}
	if err := parallel.ForEach(jobs, len(runs), func(i int) error {
		runs[i]()
		return nil
	}); err != nil {
		return CampaignReport{}, err
	}

	r := CampaignReport{
		Clean: clean, Reference: ref, Faulty: faulty,
		CleanPDs: cleanChk.PDs(), ReferencePDs: refChk.PDs(), FaultyPDs: faultyChk.PDs(),
		FaultCounts: rep.Counts(), TotalFaults: rep.Total(),
		Violations: slices.Concat(cleanChk.Violations(), refChk.Violations(), faultyChk.Violations()),
		Envelope:   hitRateEnvelope,
	}
	r.HitRateDelta = math.Abs(clean.Stats.HitRate() - faulty.Stats.HitRate())
	r.EnvelopeOK = r.HitRateDelta <= hitRateEnvelope

	// Recompute seq s fires at policy access s*recompute; the checker only
	// sees the measured window, whose first recompute is policy-global
	// ordinal floor(warm/recompute)+1. Faults stop at policy access
	// warm+faultAccesses.
	globalEnd := int((warm+faultAccesses)/recompute) + 1
	r.FaultEndSeq = globalEnd - int(warm/recompute)
	r.ReconvergedAt = Reconvergence(r.ReferencePDs, r.FaultyPDs, r.FaultEndSeq, pdTolerance)
	r.ReconvergeOK = r.ReconvergedAt >= 0 && r.ReconvergedAt <= r.FaultEndSeq+reconvergeWindows
	if r.ReconvergeOK && cfg.Journal != nil {
		cfg.Journal.Append(telemetry.RecoveryRecord{
			Kind: telemetry.KindRecovery, Name: cfg.Bench.Name, Cause: "pd_reconverge",
			Detail: fmt.Sprintf("PD rejoined reference trajectory at recompute %d (fault window closed at %d)",
				r.ReconvergedAt, r.FaultEndSeq),
		})
	}
	return r, nil
}
