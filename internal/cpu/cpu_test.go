package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCyclesHandComputed(t *testing.T) {
	m := Model{Width: 4, LLCHitCycles: 30, MemCycles: 200}
	// 1000 instructions, 10 LLC hits, 5 memory accesses:
	// 250 + 300 + 1000 = 1550 cycles.
	if got := m.Cycles(1000, 10, 5); got != 1550 {
		t.Fatalf("Cycles = %v, want 1550", got)
	}
	if got := m.IPC(1000, 10, 5); math.Abs(got-1000.0/1550) > 1e-12 {
		t.Fatalf("IPC = %v", got)
	}
}

func TestIPCMonotoneInHits(t *testing.T) {
	// More hits (fewer memory accesses) must never lower IPC — the property
	// the paper's relative comparisons rest on.
	m := Default()
	f := func(instr uint16, hits uint8, mem uint8) bool {
		in := uint64(instr) + 1
		h, mm := uint64(hits), uint64(mem)+1
		return m.IPC(in, h+1, mm-1) >= m.IPC(in, h, mm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstructions(t *testing.T) {
	if got := Instructions(1000, 10); got != 100_000 {
		t.Fatalf("Instructions = %d, want 100000", got)
	}
	if got := Instructions(1000, 0); got != 0 {
		t.Fatalf("Instructions with zero APKI = %d, want 0", got)
	}
}

func TestMPKI(t *testing.T) {
	if got := MPKI(50, 10_000); got != 5 {
		t.Fatalf("MPKI = %v, want 5", got)
	}
	if got := MPKI(50, 0); got != 0 {
		t.Fatalf("MPKI with zero instructions = %v, want 0", got)
	}
}

func TestIPCZeroInstr(t *testing.T) {
	m := Default()
	if got := m.IPC(0, 0, 0); got != 0 {
		t.Fatalf("IPC(0) = %v, want 0", got)
	}
}

func TestEnergyEstimate(t *testing.T) {
	m := EnergyModel{ReadNJ: 1, WriteNJ: 2, TagNJ: 0.5, MemNJ: 10}
	// 10 hits, 4 inserts, 6 bypasses, 10 misses.
	b := m.Estimate(10, 4, 6, 10)
	if b.ReadNJ != 10 || b.WriteNJ != 8 || b.TagNJ != 10 || b.MemNJ != 100 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.Total() != 128 {
		t.Fatalf("total = %v, want 128", b.Total())
	}
}

func TestEnergyBypassSavesWrites(t *testing.T) {
	m := DefaultEnergy()
	// Same misses; one policy bypasses half its fills.
	fill := m.Estimate(100, 100, 0, 100)
	byp := m.Estimate(100, 50, 50, 100)
	if byp.Total() >= fill.Total() {
		t.Fatal("bypassing fills must reduce energy")
	}
	if byp.WriteNJ >= fill.WriteNJ {
		t.Fatal("bypass must cut write energy")
	}
}
