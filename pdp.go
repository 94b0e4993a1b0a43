// Package pdp is a library implementation of "Improving Cache Management
// Policies Using Dynamic Reuse Distances" (Duong, Zhao, Kim, Cammarota,
// Valero, Veidenbaum — MICRO 2012): Protecting-Distance-based replacement
// and bypass (PDP), the reuse-distance hit-rate model E(d_p), the RD
// sampler and PD-compute hardware models, and PD-based shared-cache
// partitioning — together with the trace-driven cache simulator and the
// comparison policies (LRU, DIP, SRRIP/BRRIP/DRRIP, TA-DRRIP, EELRU, SDP,
// UCP, PIPP) the paper evaluates against.
//
// This package is a curated façade over the implementation packages; it is
// the supported import surface. A minimal single-core use:
//
//	pol := pdp.NewPDP(pdp.PDPConfig{Sets: 2048, Ways: 16, Bypass: true})
//	llc := pdp.NewCache(pdp.CacheConfig{
//		Name: "LLC", Sets: 2048, Ways: 16, LineSize: 64, AllowBypass: true,
//	}, pol)
//	res := llc.Access(pdp.Access{Addr: 0x4040})
//
// ExampleNewPDP is the tested version of this flow; cmd/repro is the
// harness regenerating every table and figure of the paper.
package pdp

import (
	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/counter"
	"pdp/internal/cpu"
	"pdp/internal/dip"
	"pdp/internal/eelru"
	"pdp/internal/partition"
	"pdp/internal/pdproc"
	"pdp/internal/prefetch"
	"pdp/internal/rrip"
	"pdp/internal/sampler"
	"pdp/internal/sdp"
	"pdp/internal/telemetry"
	"pdp/internal/trace"
)

// Access and trace generation.
type (
	// Access is one memory reference.
	Access = trace.Access
	// Generator produces deterministic access streams.
	Generator = trace.Generator
	// RDDSpec targets a synthetic reuse-distance distribution.
	RDDSpec = trace.RDDSpec
	// Peak is one component of an RDDSpec.
	Peak = trace.Peak
	// Segment is one phase of a phased generator.
	Segment = trace.Segment
	// RNG is the deterministic PRNG used by the generators.
	RNG = trace.RNG
)

// LineSize is the cache line size used throughout (64B, paper Table 1).
const LineSize = trace.LineSize

// Trace generator constructors.
var (
	// NewRDDGen builds a generator with a target reuse-distance
	// distribution.
	NewRDDGen = trace.NewRDDGen
	// NewLoopGen builds a cyclic working-set sweep.
	NewLoopGen = trace.NewLoopGen
	// NewDriftLoopGen builds a cyclic sweep whose working set slowly drifts.
	NewDriftLoopGen = trace.NewDriftLoopGen
	// NewStreamGen builds a never-reusing sequential stream.
	NewStreamGen = trace.NewStreamGen
	// NewNoiseGen builds never-reused traffic over random sets.
	NewNoiseGen = trace.NewNoiseGen
	// NewPointerChaseGen builds a random single-cycle walk.
	NewPointerChaseGen = trace.NewPointerChaseGen
	// NewMixGen interleaves child generators probabilistically.
	NewMixGen = trace.NewMixGen
	// NewPhasedGen schedules generators in looping phases.
	NewPhasedGen = trace.NewPhasedGen
	// NewRNG builds a deterministic PRNG.
	NewRNG = trace.NewRNG
)

// Cache simulation.
type (
	// Cache is a set-associative cache with a pluggable policy.
	Cache = cache.Cache
	// CacheConfig describes one cache level.
	CacheConfig = cache.Config
	// CacheStats aggregates activity counters.
	CacheStats = cache.Stats
	// Result reports one access.
	Result = cache.Result
	// Policy decides replacement and bypass.
	Policy = cache.Policy
	// NopPolicy provides no-op hooks for embedding.
	NopPolicy = cache.NopPolicy
	// Monitor observes cache events.
	Monitor = cache.Monitor
	// Event is a monitor callback record.
	Event = cache.Event
	// LRU is the least-recently-used policy.
	LRU = cache.LRU
)

// Cache constructors.
var (
	// NewCache builds a cache.
	NewCache = cache.New
	// NewLRU builds an LRU policy.
	NewLRU = cache.NewLRU
	// NewRandom builds a random-replacement policy.
	NewRandom = cache.NewRandom
)

// The paper's contribution: PDP and the hit-rate model.
type (
	// PDP is the Protecting-Distance-based Policy (paper Sec. 2).
	PDP = core.PDP
	// PDPConfig parameterizes PDP.
	PDPConfig = core.Config
	// ModelPeak is a local maximum of E (partitioning candidates).
	ModelPeak = core.Peak
	// PrefetchMode selects Sec. 6.5 prefetch handling.
	PrefetchMode = core.PrefetchMode
	// ClassPDP is the per-PC-class PDP (the paper's Sec. 6.3 proposal).
	ClassPDP = core.ClassPDP
	// ClassPDPConfig parameterizes ClassPDP.
	ClassPDPConfig = core.ClassConfig
)

// Prefetch handling variants (paper Sec. 6.5).
const (
	PFNormal    = core.PFNormal
	PFInsertPD1 = core.PFInsertPD1
	PFBypass    = core.PFBypass
)

// PDP constructors and the E(d_p) model.
var (
	// NewPDP builds a PDP policy.
	NewPDP = core.New
	// NewClassPDP builds a per-PC-class PDP.
	NewClassPDP = core.NewClassPDP
	// EValues evaluates the hit-rate approximation E(d_p) (paper Eq. 1).
	EValues = core.EValues
	// FindPD returns the E-maximizing protecting distance.
	FindPD = core.FindPD
	// ModelPeaks returns the top local maxima of E.
	ModelPeaks = core.Peaks
)

// Reuse-distance measurement hardware (paper Sec. 3).
type (
	// RDSampler measures set-level reuse distances.
	RDSampler = sampler.RDSampler
	// MultiRDSampler shares FIFOs across threads with per-thread arrays.
	MultiRDSampler = sampler.MultiRDSampler
	// CounterArray accumulates the RDD.
	CounterArray = sampler.CounterArray
	// SamplerConfig describes an RD sampler.
	SamplerConfig = sampler.Config
)

// Sampler constructors.
var (
	// NewRDSampler builds a sampler.
	NewRDSampler = sampler.New
	// NewMultiRDSampler builds the multi-core sampler organization.
	NewMultiRDSampler = sampler.NewMulti
	// NewCounterArray builds an RDD counter array.
	NewCounterArray = sampler.NewCounterArray
	// RealSamplerConfig is the paper's 32-set production configuration.
	RealSamplerConfig = sampler.RealConfig
	// FullSamplerConfig is the exact-measurement configuration.
	FullSamplerConfig = sampler.FullConfig
)

// The PD-compute special-purpose processor (paper Sec. 3, Fig. 8).
type (
	// PDProcMachine executes the 16-instruction ISA.
	PDProcMachine = pdproc.Machine
	// PDProcResult reports one hardware PD computation.
	PDProcResult = pdproc.Result
)

// PD-compute processor entry points.
var (
	// PDProcCompute runs the PD search on the cycle-accurate machine.
	PDProcCompute = pdproc.Compute
	// PDProcProgram returns the assembled search program.
	PDProcProgram = pdproc.SearchProgram
)

// Comparison policies.
type (
	// DIP is the dynamic insertion policy (Qureshi et al., ISCA 2007).
	DIP = dip.DIP
	// BIP is the bimodal insertion policy.
	BIP = dip.BIP
	// SRRIP is static RRIP (Jaleel et al., ISCA 2010).
	SRRIP = rrip.SRRIP
	// BRRIP is bimodal RRIP.
	BRRIP = rrip.BRRIP
	// DRRIP is set-dueling RRIP.
	DRRIP = rrip.DRRIP
	// TADRRIP is thread-aware DRRIP.
	TADRRIP = rrip.TADRRIP
	// EELRU is early-eviction LRU (Smaragdakis et al., SIGMETRICS 1999).
	EELRU = eelru.EELRU
	// EELRUConfig parameterizes EELRU.
	EELRUConfig = eelru.Config
	// SDP is the sampling dead-block predictor (Khan et al., MICRO 2010).
	SDP = sdp.SDP
	// SDPConfig parameterizes SDP.
	SDPConfig = sdp.Config
)

// Comparison-policy constructors.
var (
	NewDIP     = dip.NewDIP
	NewBIP     = dip.NewBIP
	NewSRRIP   = rrip.NewSRRIP
	NewBRRIP   = rrip.NewBRRIP
	NewDRRIP   = rrip.NewDRRIP
	NewTADRRIP = rrip.NewTADRRIP
	NewEELRU   = eelru.New
	NewSDP     = sdp.New
)

// Shared-cache partitioning (paper Sec. 4 and comparison points).
type (
	// PDPPart is the PD-based partitioning policy.
	PDPPart = partition.PDPPart
	// PDPPartConfig parameterizes it.
	PDPPartConfig = partition.PDPPartConfig
	// UCP is utility-based cache partitioning (Qureshi & Patt, MICRO 2006).
	UCP = partition.UCP
	// PIPP is promotion/insertion pseudo-partitioning (Xie & Loh, ISCA 2009).
	PIPP = partition.PIPP
	// UMON is the utility monitor with the lookahead algorithm.
	UMON = partition.UMON
)

// Partitioning constructors.
var (
	NewPDPPart = partition.NewPDPPart
	NewUCP     = partition.NewUCP
	NewPIPP    = partition.NewPIPP
	NewUMON    = partition.NewUMON
)

// Timing model and prefetching.
type (
	// TimingModel converts cache behaviour to cycles/IPC.
	TimingModel = cpu.Model
	// Prefetcher is a reference stream prefetcher.
	Prefetcher = prefetch.Prefetcher
	// PrefetcherConfig parameterizes it.
	PrefetcherConfig = prefetch.Config
)

// Timing and prefetch entry points.
var (
	// DefaultTiming is the paper-configured core model.
	DefaultTiming = cpu.Default
	// Instructions converts access counts to instruction counts.
	Instructions = cpu.Instructions
	// MPKI computes misses per kiloinstruction.
	MPKI = cpu.MPKI
	// NewPrefetcher builds a stream prefetcher.
	NewPrefetcher = prefetch.New
)

// SHiP-related façade entries (signature-based hit prediction, the
// classification approach the paper relates to in Sec. 6.3/7).
type SHiP = rrip.SHiP

// NewSHiP builds a SHiP-PC policy.
var NewSHiP = rrip.NewSHiP

// Observability: the telemetry layer (metrics registry, event journal,
// interval snapshots, profiling hooks).
type (
	// TelemetryRegistry is a namespace of named counters, gauges and
	// log2-bucketed histograms with atomic updates.
	TelemetryRegistry = telemetry.Registry
	// TelemetryJournal is a bounded ring of structured records with an
	// optional JSONL sink.
	TelemetryJournal = telemetry.Journal
	// TelemetryTap is a cache monitor feeding the telemetry pipeline.
	TelemetryTap = telemetry.Tap
	// TelemetryTapConfig parameterizes a Tap.
	TelemetryTapConfig = telemetry.TapConfig
	// TelemetryRecord is one journal entry.
	TelemetryRecord = telemetry.Record
	// TelemetrySnapshot is the periodic interval-snapshot record.
	TelemetrySnapshot = telemetry.SnapshotRecord
	// PDPRecomputeEvent describes one dynamic PD recomputation.
	PDPRecomputeEvent = core.RecomputeEvent
	// SamplerStats counts RD-sampler activity.
	SamplerStats = sampler.Stats
)

// Telemetry constructors and helpers.
var (
	// NewTelemetryRegistry builds an empty metrics registry.
	NewTelemetryRegistry = telemetry.NewRegistry
	// NewTelemetryJournal builds a journal with the given ring size.
	NewTelemetryJournal = telemetry.NewJournal
	// NewTelemetryTap builds a cache tap.
	NewTelemetryTap = telemetry.NewTap
	// MultiMonitor fans cache events out to several monitors.
	MultiMonitor = telemetry.Multi
	// ObservePDP journals a PDP policy's recomputations and sampler events.
	ObservePDP = telemetry.ObservePDP
	// ServeDebug starts a /debug/pprof + /debug/vars HTTP server.
	ServeDebug = telemetry.ServeDebug
	// StartCPUProfile begins a CPU profile; call the returned stop.
	StartCPUProfile = telemetry.StartCPUProfile
	// WriteHeapProfile writes a heap profile.
	WriteHeapProfile = telemetry.WriteHeapProfile
)

// AIP-related façade entries (counter-based replacement/bypass, the
// paper's reference [19]).
type (
	// AIP is the access-interval-predicting counter-based policy.
	AIP = counter.AIP
	// AIPConfig parameterizes AIP.
	AIPConfig = counter.Config
)

// NewAIP builds a counter-based replacement/bypass policy.
var NewAIP = counter.New
