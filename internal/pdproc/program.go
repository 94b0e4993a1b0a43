package pdproc

import (
	"fmt"

	"pdp/internal/sampler"
)

// Register allocation of the PD-search program.
//
//	R0  k (loop counter)          R8  sumN
//	R1  Sc                        R9  sumNd
//	R2  d_e                       R10 N_t
//	R3  K (number of counters)    R11 scratch / inv
//	R4  k+1                       R12 scratch / long / den
//	R5  constant 1                R13 best inv (minimized)
//	R6  constant 0                R14 best d_p (the result)
//	R7  (unused)                  R15 d_p + d_e
//
// The program minimizes inv(d_p) = (den << fracBits) / sumN, the fixed-point
// reciprocal of E(d_p) — the hardware-friendly equivalent of maximizing E.
const fracBits = 4

// searchProgram is the E-maximization algorithm expressed in the paper's
// sixteen-instruction ISA.
var searchProgram = []Instr{
	{Op: MOVI, Rd: 0, Imm: 0},               // k = 0
	{Op: MOVI, Rd: 8, Imm: 0},               // sumN = 0
	{Op: MOVI, Rd: 9, Imm: 0},               // sumNd = 0
	{Op: MOVI, Rd: 13, Imm: 0xFFFFFFFF},     // bestInv = +inf
	{Op: MOVI, Rd: 14, Imm: 0},              // bestDp = 0
	{Op: LDC, Rd: 11, Rs: 0, Label: "loop"}, // n = N[k]
	{Op: ADD, Rd: 8, Rs: 8, Rt: 11},         // sumN += n
	{Op: ADD, Rd: 4, Rs: 0, Rt: 5},          // R4 = k+1
	{Op: MULT8, Rd: 11, Rs: 11, Rt: 4},      // n*(k+1)
	{Op: MULT8, Rd: 11, Rs: 11, Rt: 1},      // n*dp
	{Op: ADD, Rd: 9, Rs: 9, Rt: 11},         // sumNd += n*dp
	{Op: MOV, Rd: 15, Rs: 4},                // R15 = k+1
	{Op: MULT8, Rd: 15, Rs: 15, Rt: 1},      // dp = (k+1)*Sc
	{Op: ADD, Rd: 15, Rs: 15, Rt: 2},        // R15 = dp + de
	{Op: SUB, Rd: 12, Rs: 10, Rt: 8},        // long = Nt - sumN
	{Op: MOV, Rd: 11, Rs: 12},               //
	{Op: MULT8, Rd: 11, Rs: 11, Rt: 4},      // long*(k+1)
	{Op: MULT8, Rd: 11, Rs: 11, Rt: 1},      // long*dp
	{Op: MULT8, Rd: 12, Rs: 12, Rt: 2},      // long*de
	{Op: ADD, Rd: 12, Rs: 12, Rt: 11},       // long*(dp+de)
	{Op: ADD, Rd: 12, Rs: 12, Rt: 9},        // den = sumNd + long*(dp+de)
	{Op: BEQ, Rs: 8, Rt: 6, Target: "next"}, // no hits yet: skip
	{Op: SHL, Rd: 12, Rs: 12, Imm: fracBits},
	{Op: DIV32, Rd: 11, Rs: 12, Rt: 8}, // inv = (den<<f)/sumN
	{Op: BLT, Rs: 11, Rt: 13, Target: "take"},
	{Op: JMP, Target: "next"},
	{Op: MOV, Rd: 13, Rs: 11, Label: "take"},      // bestInv = inv
	{Op: SUB, Rd: 14, Rs: 15, Rt: 2},              // bestDp = dp
	{Op: ADD, Rd: 0, Rs: 0, Rt: 5, Label: "next"}, // k++
	{Op: BLT, Rs: 0, Rt: 3, Target: "loop"},
	{Op: HALT},
}

// assembled is built once at package init; the program is static hardware.
var assembled = func() *Program {
	p, err := Assemble(searchProgram)
	if err != nil {
		panic(err)
	}
	return p
}()

// SearchProgram returns the assembled PD-search program (for inspection).
func SearchProgram() *Program { return assembled }

// Result reports one hardware PD computation.
type Result struct {
	// PD is the selected protecting distance (0 when the array held no
	// usable reuse information).
	PD int
	// Cycles is the machine time consumed — the quantity the paper argues
	// is negligible against the 512K-access recomputation interval.
	Cycles uint64
}

// Compute runs the PD search on the machine for the given counter array
// and d_e term.
func Compute(arr *sampler.CounterArray, de int) (Result, error) {
	k := arr.K()
	if k > 255 {
		return Result{}, fmt.Errorf("pdproc: K=%d exceeds the 8-bit loop counter; use Sc >= DMax/255", k)
	}
	if de > 255 {
		return Result{}, fmt.Errorf("pdproc: de=%d exceeds 8 bits", de)
	}
	counters := arr.Counts()
	nt := arr.Total()
	// Guard the 32-bit datapath: scale the whole array down when N_t is
	// large (shape-preserving, as a hardware implementation would). The
	// worst-case denominator is N_t*(DMax+d_e) and it is shifted left by
	// fracBits, so N_t < 2^19 keeps everything inside 32 bits for
	// DMax+d_e <= 512.
	shift := uint(0)
	for nt>>shift >= 1<<19 {
		shift++
	}
	if shift > 0 {
		for i := range counters {
			counters[i] >>= shift
		}
		nt >>= shift
	}

	m := NewMachine(assembled, counters)
	m.SetReg(1, uint32(arr.Sc()))
	m.SetReg(2, uint32(de))
	m.SetReg(3, uint32(k))
	m.SetReg(5, 1)
	m.SetReg(6, 0)
	m.SetReg(10, uint32(nt))
	if err := m.Run(1 << 20); err != nil {
		return Result{}, err
	}
	return Result{PD: int(m.Reg(14)), Cycles: m.Cycles()}, nil
}
