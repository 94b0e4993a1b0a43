// Package workload defines the synthetic benchmark models standing in for
// the PDP paper's SPEC CPU2006 traces. Each model reproduces the published
// reuse-distance structure of its namesake at the LLC (peaked, multi-peak,
// streaming, thrashing, pointer-chasing, LRU-friendly, phase-changing) and
// carries an LLC-accesses-per-kiloinstruction rate for IPC/MPKI accounting.
// See DESIGN.md for the substitution rationale.
package workload

import (
	"fmt"

	"pdp/internal/trace"
	"pdp/internal/tracefile"
)

// Benchmark is one synthetic workload model.
type Benchmark struct {
	// Name matches the paper's benchmark naming.
	Name string
	// APKI is the rate of LLC-visible accesses per 1000 instructions.
	APKI float64
	// Build constructs the access generator for an LLC with `sets` sets.
	// base disambiguates the address space (use the thread index in
	// multi-programmed mixes); seed fixes the random stream.
	Build func(sets int, base, seed uint64) trace.Generator
}

// Generator builds the benchmark's access stream.
func (b Benchmark) Generator(sets int, base, seed uint64) trace.Generator {
	return b.Build(sets, base, seed)
}

func rdd(name string, spec trace.RDDSpec, apki float64) Benchmark {
	return Benchmark{
		Name: name,
		APKI: apki,
		Build: func(sets int, base, seed uint64) trace.Generator {
			return trace.NewRDDGen(name, spec, sets, base, seed)
		},
	}
}

// loopPeak describes one working-set component of a loopStream benchmark: a
// cyclic working set whose set-level reuse distance is RD when it receives
// a Weight fraction of the accesses. Drift is the fraction of the working
// set replaced with fresh lines per cycle (0 = static loop).
type loopPeak struct {
	RD     int
	Weight float64
	Drift  float64
}

// loopStream models the paper's peaked benchmarks: one or more cyclic
// working sets (sustained, chained reuse at a stable set-level distance —
// the structure protecting distances exploit) mixed with never-reused
// streaming traffic. A loop given weight w with L lines per set has
// set-level reuse distance L/w, so L = RD*w. Half the streaming component
// touches random sets (NoiseGen), which gives the per-set interleave — and
// hence the reuse-distance distribution — a realistic spread instead of a
// delta function.
func loopStream(name string, apki, streamW float64, peaks ...loopPeak) Benchmark {
	return Benchmark{
		Name: name,
		APKI: apki,
		Build: func(sets int, base, seed uint64) trace.Generator {
			var gens []trace.Generator
			var weights []float64
			for i, p := range peaks {
				lines := int(float64(p.RD)*p.Weight + 0.5)
				if lines < 1 {
					lines = 1
				}
				gname := fmt.Sprintf("%s.ws%d", name, i)
				if p.Drift > 0 {
					gens = append(gens, trace.NewDriftLoopGen(
						gname, lines*sets, p.Drift, base*8+uint64(i), seed+uint64(i)))
				} else {
					gens = append(gens, trace.NewLoopGen(
						gname, lines*sets, base*8+uint64(i)))
				}
				weights = append(weights, p.Weight)
			}
			if streamW > 0 {
				gens = append(gens, trace.NewStreamGen(name+".stream", base*8+6))
				gens = append(gens, trace.NewNoiseGen(name+".noise", base*8+7, seed^0xA5A5))
				weights = append(weights, streamW/2, streamW/2)
			}
			return trace.NewMixGen(name, seed^0x5EED, gens, weights)
		},
	}
}

// Suite returns the sixteen benchmark models used in the paper's averages
// (483.xalancbmk is its window 3, the medium-improvement window the paper
// includes in averages).
func Suite() []Benchmark {
	return []Benchmark{
		// Mass at short distances plus many single-use lines; protection
		// beyond the small peaks only pollutes.
		rdd("403.gcc", trace.RDDSpec{
			Peaks: []trace.Peak{{Dist: 6, Weight: 0.25}, {Dist: 20, Weight: 0.12}},
			Fresh: 0.55, Far: 0.08, Spread: 2, WriteFrac: 0.25,
		}, 8),
		// Pointer chasing over a huge working set: almost everything is
		// reused far beyond d_max; the computed PD mismatches (Sec. 6.3).
		rdd("429.mcf", trace.RDDSpec{
			Peaks: []trace.Peak{{Dist: 4, Weight: 0.10}},
			Fresh: 0.55, Far: 0.30, FarMin: 600, Spread: 2, WriteFrac: 0.15,
		}, 35),
		// Pure streaming.
		{Name: "433.milc", APKI: 15, Build: func(sets int, base, seed uint64) trace.Generator {
			return trace.NewStreamGen("433.milc", base)
		}},
		rdd("434.zeusmp", trace.RDDSpec{
			Peaks: []trace.Peak{{Dist: 12, Weight: 0.30}},
			Fresh: 0.55, Far: 0.05, Spread: 3, WriteFrac: 0.3,
		}, 6),
		// The paper's showcase: a sustained working set reused at set-level
		// distance ~68 under streaming side traffic — only protection to
		// ~76 covers it (paper: best static PDs 76/72).
		loopStream("436.cactusADM", 10, 0.35, loopPeak{RD: 68, Weight: 0.65, Drift: 0.12}),
		// Moderate working set drowned in PC-identifiable streaming: the
		// SDP-friendly case (the stream's PCs are learnable dead-on-arrival;
		// PDP cannot distinguish them from the working set).
		loopStream("437.leslie3d", 12, 0.65, loopPeak{RD: 24, Weight: 0.35, Drift: 0.10}),
		// Two working sets at different distances (two RDD peaks).
		loopStream("450.soplex", 14, 0.50,
			loopPeak{RD: 44, Weight: 0.32, Drift: 0.10}, loopPeak{RD: 100, Weight: 0.18, Drift: 0.10}),
		// Sharp narrow peak just above W: sensitive to counter-step
		// rounding (Fig. 9).
		loopStream("456.hmmer", 4, 0.35, loopPeak{RD: 18, Weight: 0.65, Drift: 0.08}),
		// Mostly streaming with a PC-predictable sliver of reuse
		// (SDP-friendly).
		loopStream("459.GemsFDTD", 18, 0.85, loopPeak{RD: 22, Weight: 0.15}),
		// Cyclic sweep with set-level distance 250, at the edge of d_max:
		// coarse n_c evicts lines just before reuse (Sec. 6.2 discussion).
		{Name: "462.libquantum", APKI: 25, Build: func(sets int, base, _ uint64) trace.Generator {
			return trace.NewLoopGen("462.libquantum", 250*sets, base)
		}},
		// Working sets just above the associativity plus heavy thrash: the
		// benchmark where bypass matters most (89% bypass in the paper).
		loopStream("464.h264ref", 5, 0.50,
			loopPeak{RD: 24, Weight: 0.34, Drift: 0.15}, loopPeak{RD: 48, Weight: 0.16, Drift: 0.15}),
		{Name: "470.lbm", APKI: 20, Build: func(sets int, base, seed uint64) trace.Generator {
			return trace.NewStreamGen("470.lbm", base)
		}},
		rdd("471.omnetpp", trace.RDDSpec{
			Peaks: []trace.Peak{{Dist: 10, Weight: 0.15}},
			Fresh: 0.50, Far: 0.30, FarMin: 480, Spread: 3, WriteFrac: 0.3,
		}, 12),
		// LRU-friendly: all reuse within the associativity.
		rdd("473.astar", trace.RDDSpec{
			Peaks: []trace.Peak{{Dist: 8, Weight: 0.60}, {Dist: 14, Weight: 0.20}},
			Fresh: 0.15, Spread: 1, WriteFrac: 0.3,
		}, 6),
		loopStream("482.sphinx3", 10, 0.55, loopPeak{RD: 90, Weight: 0.45, Drift: 0.12}),
		xalancWindow(3),
	}
}

// xalancWindow builds one of the three studied execution windows of
// 483.xalancbmk; their RDDs differ in peak position and shape (Fig. 5b),
// driving the paper's phase-adaptation argument.
func xalancWindow(n int) Benchmark {
	name := fmt.Sprintf("483.xalancbmk.%d", n)
	switch n {
	case 1:
		return loopStream(name, 9, 0.48,
			loopPeak{RD: 100, Weight: 0.38, Drift: 0.12}, loopPeak{RD: 30, Weight: 0.14, Drift: 0.12})
	case 2:
		return loopStream(name, 9, 0.45, loopPeak{RD: 88, Weight: 0.55, Drift: 0.12})
	case 3:
		return loopStream(name, 9, 0.52,
			loopPeak{RD: 124, Weight: 0.30, Drift: 0.12}, loopPeak{RD: 60, Weight: 0.18, Drift: 0.12})
	default:
		panic(fmt.Sprintf("workload: xalancbmk window %d out of range", n))
	}
}

// XalancWindows returns the three studied windows.
func XalancWindows() []Benchmark {
	return []Benchmark{xalancWindow(1), xalancWindow(2), xalancWindow(3)}
}

// All returns the suite plus the extra xalancbmk windows.
func All() []Benchmark {
	out := Suite()
	out = append(out, xalancWindow(1), xalancWindow(2))
	return out
}

// ByName finds a benchmark model by name.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	for _, b := range Phased() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Names lists the suite's benchmark names.
func Names(bs []Benchmark) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// phased builds a looping phase schedule over sub-models.
func phased(name string, apki float64, segLen uint64, phases ...Benchmark) Benchmark {
	return Benchmark{
		Name: name,
		APKI: apki,
		Build: func(sets int, base, seed uint64) trace.Generator {
			segs := make([]trace.Segment, len(phases))
			for i, ph := range phases {
				segs[i] = trace.Segment{
					Gen:   ph.Build(sets, base*16+uint64(i)*2, seed+uint64(i)),
					Count: segLen,
				}
			}
			return trace.NewPhasedGen(name, segs)
		},
	}
}

// Phased returns the five phase-changing benchmark variants studied in the
// paper's Sec. 6.4 (Fig. 11). Each phase moves the RDD peak, so the best
// PD changes over time.
func Phased() []Benchmark {
	const seg = 400_000
	return []Benchmark{
		phased("403.gcc.phased", 8, seg,
			loopStream("p0", 8, 0.60, loopPeak{RD: 8, Weight: 0.40}),
			loopStream("p1", 8, 0.55, loopPeak{RD: 40, Weight: 0.45}),
		),
		phased("450.soplex.phased", 14, seg,
			loopStream("p0", 14, 0.55, loopPeak{RD: 44, Weight: 0.45}),
			loopStream("p1", 14, 0.55, loopPeak{RD: 100, Weight: 0.45}),
			loopStream("p2", 14, 0.55, loopPeak{RD: 20, Weight: 0.45}),
		),
		phased("483.xalancbmk.phased", 9, seg,
			xalancWindow(1), xalancWindow(2), xalancWindow(3),
		),
		phased("429.mcf.phased", 35, seg,
			rdd("p0", trace.RDDSpec{
				Peaks: []trace.Peak{{Dist: 4, Weight: 0.1}},
				Fresh: 0.6, Far: 0.25, FarMin: 600,
			}, 35),
			loopStream("p1", 35, 0.55, loopPeak{RD: 60, Weight: 0.45}),
		),
		phased("482.sphinx3.phased", 10, seg,
			loopStream("p0", 10, 0.55, loopPeak{RD: 90, Weight: 0.45}),
			loopStream("p1", 10, 0.45, loopPeak{RD: 30, Weight: 0.55}),
		),
	}
}

// Mix is a multi-programmed workload: one benchmark per core.
type Mix struct {
	ID     int
	Names  []string
	Benchs []Benchmark
}

// Mixes generates `count` random multi-programmed mixes of `cores` threads
// each, sampling the sixteen-benchmark suite with duplication allowed
// (paper Sec. 5: 80 random workloads per core count).
func Mixes(cores, count int, seed uint64) []Mix {
	suite := Suite()
	rng := trace.NewRNG(seed)
	out := make([]Mix, count)
	for i := range out {
		m := Mix{ID: i, Names: make([]string, cores), Benchs: make([]Benchmark, cores)}
		for c := 0; c < cores; c++ {
			b := suite[rng.Intn(len(suite))]
			m.Names[c] = b.Name
			m.Benchs[c] = b
		}
		out[i] = m
	}
	return out
}

// FromAccesses wraps a recorded access sequence as a Benchmark (looping at
// the end, matching the paper's thread-rewind semantics). Its one caller,
// `pdpsim -trace`, sizes its warm-up and window to the trace, so a replay
// there never reaches the loop.
func FromAccesses(name string, apki float64, accs []trace.Access) Benchmark {
	if apki <= 0 {
		apki = 10
	}
	return Benchmark{
		Name: name,
		APKI: apki,
		Build: func(sets int, base, seed uint64) trace.Generator {
			return tracefile.NewGenerator(name, accs)
		},
	}
}
