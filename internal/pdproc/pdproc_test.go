package pdproc

import (
	"testing"
	"testing/quick"

	"pdp/internal/core"
	"pdp/internal/sampler"
)

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  []Instr
	}{
		{"duplicate label", []Instr{{Op: HALT, Label: "a"}, {Op: HALT, Label: "a"}}},
		{"undefined target", []Instr{{Op: JMP, Target: "nowhere"}, {Op: HALT}}},
		{"bad register", []Instr{{Op: MOV, Rd: 16, Rs: 0}, {Op: HALT}}},
		{"mult8 32-bit multiplier", []Instr{{Op: MULT8, Rd: 8, Rs: 8, Rt: 9}, {Op: HALT}}},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: expected assembly error", c.name)
		}
	}
}

func run(t *testing.T, src []Instr, counters []uint32, init map[int]uint32) *Machine {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, counters)
	for r, v := range init {
		m.SetReg(r, v)
	}
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineArithmetic(t *testing.T) {
	m := run(t, []Instr{
		{Op: MOVI, Rd: 8, Imm: 100},
		{Op: MOVI, Rd: 9, Imm: 42},
		{Op: ADD, Rd: 10, Rs: 8, Rt: 9},  // 142
		{Op: SUB, Rd: 11, Rs: 8, Rt: 9},  // 58
		{Op: AND, Rd: 12, Rs: 8, Rt: 9},  // 100 & 42 = 32
		{Op: OR, Rd: 13, Rs: 8, Rt: 9},   // 110
		{Op: XOR, Rd: 14, Rs: 8, Rt: 9},  // 78
		{Op: SHL, Rd: 15, Rs: 9, Imm: 3}, // 336
		{Op: HALT},
	}, nil, nil)
	for _, c := range []struct {
		r    int
		want uint32
	}{{10, 142}, {11, 58}, {12, 32}, {13, 110}, {14, 78}, {15, 336}} {
		if got := m.Reg(c.r); got != c.want {
			t.Errorf("R%d = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestMachine8BitMasking(t *testing.T) {
	m := run(t, []Instr{
		{Op: MOVI, Rd: 0, Imm: 0x1FF}, // masked to 0xFF
		{Op: MOVI, Rd: 1, Imm: 2},
		{Op: ADD, Rd: 2, Rs: 0, Rt: 1}, // 0xFF+2 = 0x101 -> masked 0x01
		{Op: HALT},
	}, nil, nil)
	if m.Reg(0) != 0xFF {
		t.Errorf("R0 = %#x, want 0xFF", m.Reg(0))
	}
	if m.Reg(2) != 0x01 {
		t.Errorf("R2 = %#x, want 0x01 (8-bit wraparound)", m.Reg(2))
	}
}

func TestMachineMult8AndDiv32(t *testing.T) {
	m := run(t, []Instr{
		{Op: MOVI, Rd: 8, Imm: 1000},
		{Op: MOVI, Rd: 1, Imm: 7},
		{Op: MULT8, Rd: 9, Rs: 8, Rt: 1}, // 7000
		{Op: MOVI, Rd: 10, Imm: 13},
		{Op: DIV32, Rd: 11, Rs: 9, Rt: 10}, // 538
		{Op: MOVI, Rd: 12, Imm: 0},
		{Op: DIV32, Rd: 13, Rs: 9, Rt: 12}, // div by zero -> all ones
		{Op: HALT},
	}, nil, nil)
	if m.Reg(9) != 7000 {
		t.Errorf("MULT8 = %d, want 7000", m.Reg(9))
	}
	if m.Reg(11) != 538 {
		t.Errorf("DIV32 = %d, want 538", m.Reg(11))
	}
	if m.Reg(13) != ^uint32(0) {
		t.Errorf("div-by-zero = %#x, want all ones", m.Reg(13))
	}
}

func TestMachineBranchesAndLDC(t *testing.T) {
	// Sum the counter array via a loop.
	counters := []uint32{5, 10, 15, 20}
	m := run(t, []Instr{
		{Op: MOVI, Rd: 0, Imm: 0},
		{Op: MOVI, Rd: 3, Imm: 4},
		{Op: MOVI, Rd: 5, Imm: 1},
		{Op: MOVI, Rd: 8, Imm: 0},
		{Op: LDC, Rd: 9, Rs: 0, Label: "loop"},
		{Op: ADD, Rd: 8, Rs: 8, Rt: 9},
		{Op: ADD, Rd: 0, Rs: 0, Rt: 5},
		{Op: BLT, Rs: 0, Rt: 3, Target: "loop"},
		{Op: HALT},
	}, counters, nil)
	if m.Reg(8) != 50 {
		t.Errorf("loop sum = %d, want 50", m.Reg(8))
	}
	if !m.Halted() {
		t.Error("machine must halt")
	}
}

func TestMachineLDCOutOfRange(t *testing.T) {
	m := run(t, []Instr{
		{Op: MOVI, Rd: 0, Imm: 99},
		{Op: LDC, Rd: 8, Rs: 0},
		{Op: HALT},
	}, []uint32{1, 2}, nil)
	if m.Reg(8) != 0 {
		t.Errorf("out-of-range LDC = %d, want 0", m.Reg(8))
	}
}

func TestMachineCycleCosts(t *testing.T) {
	m := run(t, []Instr{
		{Op: MOVI, Rd: 8, Imm: 8},
		{Op: MOVI, Rd: 1, Imm: 2},
		{Op: MULT8, Rd: 8, Rs: 8, Rt: 1},
		{Op: DIV32, Rd: 8, Rs: 8, Rt: 8},
		{Op: HALT},
	}, nil, nil)
	// 1 + 1 + 8 + 33 + 1
	if m.Cycles() != 44 {
		t.Errorf("cycles = %d, want 44", m.Cycles())
	}
}

func TestMachineCycleBudget(t *testing.T) {
	p, err := Assemble([]Instr{{Op: JMP, Target: "l", Label: "l"}})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, nil)
	if err := m.Run(100); err == nil {
		t.Fatal("infinite loop must exceed the cycle budget")
	}
}

func mkArray(t *testing.T, sc int, hits map[int]int, extraAccesses int) *sampler.CounterArray {
	t.Helper()
	arr := sampler.NewCounterArray(256, sc)
	total := 0
	for d, n := range hits {
		for i := 0; i < n; i++ {
			arr.RecordHit(d)
		}
		total += n
	}
	for i := 0; i < total+extraAccesses; i++ {
		arr.RecordAccess()
	}
	return arr
}

func TestComputeMatchesSoftwareOnCleanPeak(t *testing.T) {
	arr := mkArray(t, 4, map[int]int{64: 5000}, 3000)
	swPD, _ := core.FindPD(arr, 16)
	res, err := Compute(arr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.PD != swPD {
		t.Fatalf("hardware PD = %d, software PD = %d", res.PD, swPD)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles accounted")
	}
}

func TestComputeNearOptimalOnRandomArrays(t *testing.T) {
	// Property: the fixed-point hardware search selects a PD whose E is
	// within quantization error of the floating-point optimum.
	f := func(seed int64) bool {
		s := uint64(seed)
		next := func() uint64 { s = s*6364136223846793005 + 1442695040888963407; return s >> 33 }
		arr := sampler.NewCounterArray(256, 4)
		for k := 0; k < arr.K(); k++ {
			n := int(next() % 200)
			for i := 0; i < n; i++ {
				arr.RecordHit(k*4 + 1)
			}
		}
		var hits uint64
		for k := 0; k < arr.K(); k++ {
			hits += uint64(arr.Count(k))
		}
		for i := uint64(0); i < hits+next()%5000; i++ {
			arr.RecordAccess()
		}
		swPD, swE := core.FindPD(arr, 16)
		res, err := Compute(arr, 16)
		if err != nil {
			return false
		}
		if swPD == 0 {
			return res.PD == 0
		}
		ev := core.NewModel(arr, 16).E
		hwE := ev[res.PD/4-1]
		return hwE >= 0.9*swE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeEmptyArray(t *testing.T) {
	arr := sampler.NewCounterArray(256, 4)
	res, err := Compute(arr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.PD != 0 {
		t.Fatalf("PD on empty array = %d, want 0", res.PD)
	}
}

func TestComputeCyclesNegligible(t *testing.T) {
	// The paper's argument: the search runs once per 512K LLC accesses, so
	// its cycle count must be a vanishing fraction of the interval.
	arr := mkArray(t, 4, map[int]int{16: 1000, 128: 2000, 250: 500}, 10000)
	res, err := Compute(arr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles > 10000 {
		t.Fatalf("PD search took %d cycles; paper budget is ~thousands", res.Cycles)
	}
	if float64(res.Cycles)/(512*1024) > 0.02 {
		t.Fatalf("search cost %.4f of the recompute interval, want negligible", float64(res.Cycles)/(512*1024))
	}
}

func TestComputeDownscalesHugeCounts(t *testing.T) {
	arr := sampler.NewCounterArray(256, 4)
	arr.NiMax = 1 << 30 // widen the counters for this stress test
	arr.NtMax = 1 << 40
	for i := 0; i < 2_000_000; i++ {
		arr.RecordHit(64)
	}
	for i := 0; i < 50_000_000; i++ {
		arr.RecordAccess()
	}
	res, err := Compute(arr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.PD != 64 {
		t.Fatalf("PD = %d, want 64 despite down-scaling", res.PD)
	}
}

func TestComputeRejectsUnrepresentableConfigs(t *testing.T) {
	arr := sampler.NewCounterArray(256, 1) // K = 256 > 255
	if _, err := Compute(arr, 16); err == nil {
		t.Fatal("expected error for K > 255")
	}
	arr2 := sampler.NewCounterArray(256, 4)
	if _, err := Compute(arr2, 300); err == nil {
		t.Fatal("expected error for de > 255")
	}
}
