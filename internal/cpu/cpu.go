// Package cpu provides the analytic core timing model that converts cache
// behaviour into IPC and MPKI. It stands in for the paper's CMP$im-modelled
// 4-wide out-of-order core (Table 1): execution cost is issue-width-limited
// plus blocking memory latencies. Absolute IPC differs from the paper's
// testbed, but IPC is monotone in hit counts, which is what the paper's
// relative comparisons rest on (see DESIGN.md substitutions).
package cpu

// Model is the timing model.
type Model struct {
	// Width is the issue width (instructions per cycle upper bound).
	Width int
	// LLCHitCycles is the LLC hit latency seen past the L2 (paper: 30).
	LLCHitCycles int
	// MemCycles is the memory latency (paper: 200).
	MemCycles int
}

// Default returns the paper-configured model.
func Default() Model {
	return Model{Width: 4, LLCHitCycles: 30, MemCycles: 200}
}

// Cycles estimates execution time for instr instructions whose LLC-visible
// accesses split into llcHits and memAccesses (misses + bypasses).
func (m Model) Cycles(instr, llcHits, memAccesses uint64) float64 {
	return float64(instr)/float64(m.Width) +
		float64(llcHits)*float64(m.LLCHitCycles) +
		float64(memAccesses)*float64(m.MemCycles)
}

// IPC returns instructions per cycle under the model.
func (m Model) IPC(instr, llcHits, memAccesses uint64) float64 {
	c := m.Cycles(instr, llcHits, memAccesses)
	if c == 0 {
		return 0
	}
	return float64(instr) / c
}

// Instructions converts an LLC-visible access count into an instruction
// count given the workload's accesses-per-kiloinstruction rate.
func Instructions(accesses uint64, apki float64) uint64 {
	if apki <= 0 {
		return 0
	}
	return uint64(float64(accesses) * 1000.0 / apki)
}

// MPKI returns misses per kiloinstruction.
func MPKI(misses, instr uint64) float64 {
	if instr == 0 {
		return 0
	}
	return float64(misses) * 1000.0 / float64(instr)
}
