package telemetry

// Resilience-layer record kinds. The supervised run harness
// (internal/resilience) and the fault injectors (internal/faultinject)
// journal through these, so robustness campaigns are auditable alongside
// the simulator's own events.
const (
	// KindFault records one injected fault (trace record corruption, RDD
	// counter bit flip, PD perturbation, ...), sampled 1 in 1024 per site.
	KindFault = "fault"
	// KindWatchdog records a supervised run exceeding its watchdog timeout.
	KindWatchdog = "watchdog"
	// KindRecovery records the harness absorbing a failure it can survive:
	// a recovered panic, a stalled serving recompute, or a PD
	// re-convergence after a fault burst.
	KindRecovery = "recovery"
	// KindRunStatus records supervised-run lifecycle transitions
	// (start/done/failed).
	KindRunStatus = "run_status"
)

// FaultRecord is the KindFault schema.
type FaultRecord struct {
	Kind string `json:"kind"`
	// Site names the injection point: "trace.corrupt", "trace.dup",
	// "trace.drop", "trace.err", "counter.flip", "rdd.zero", "pd.perturb".
	Site string `json:"site"`
	// Seq is the 1-based fault ordinal within the injector's lifetime,
	// across all sites (the journal samples each site, so Seq has gaps).
	Seq uint64 `json:"seq"`
	// Access is the access index at which the fault fired (0 when the
	// injector has no access clock, e.g. byte-level corruption).
	Access uint64 `json:"access,omitempty"`
	// Detail describes the concrete corruption (flipped bit, old/new value).
	Detail string `json:"detail,omitempty"`
}

// RecordKind implements Record.
func (FaultRecord) RecordKind() string { return KindFault }

// WatchdogRecord is the KindWatchdog schema.
type WatchdogRecord struct {
	Kind string `json:"kind"`
	// Name identifies the supervised run (experiment id, benchmark/policy).
	Name string `json:"name"`
	// TimeoutSec is the configured watchdog timeout in seconds.
	TimeoutSec float64 `json:"timeout_sec"`
}

// RecordKind implements Record.
func (WatchdogRecord) RecordKind() string { return KindWatchdog }

// RecoveryRecord is the KindRecovery schema.
type RecoveryRecord struct {
	Kind string `json:"kind"`
	// Name identifies the supervised run or subsystem that recovered.
	Name string `json:"name"`
	// Cause names what was survived: "panic", "stall" (a serving recompute
	// past its timeout) or "pd_reconverge".
	Cause string `json:"cause"`
	// Detail carries the recovered error text or the re-converged PD.
	Detail string `json:"detail,omitempty"`
}

// RecordKind implements Record.
func (RecoveryRecord) RecordKind() string { return KindRecovery }

// RunStatusRecord is the KindRunStatus schema.
type RunStatusRecord struct {
	Kind string `json:"kind"`
	// Name identifies the supervised run.
	Name string `json:"name"`
	// Status is "start", "done" or "failed".
	Status string `json:"status"`
	// Err is the failure text for "failed".
	Err string `json:"err,omitempty"`
	// Seconds is the wall-clock duration for terminal statuses.
	Seconds float64 `json:"seconds,omitempty"`
}

// RecordKind implements Record.
func (RunStatusRecord) RecordKind() string { return KindRunStatus }
