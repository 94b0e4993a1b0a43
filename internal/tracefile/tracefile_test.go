package tracefile

import (
	"bytes"
	"errors"
	"io"
	"regexp"
	"testing"
	"testing/quick"

	"pdp/internal/trace"
)

func roundTrip(t *testing.T, accs []trace.Access) []trace.Access {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTripBasic(t *testing.T) {
	in := []trace.Access{
		{Addr: 0x1000, PC: 0x40, Thread: 0},
		{Addr: 0x1040, PC: 0x40, Write: true, Thread: 1},
		{Addr: 0x0FC0, PC: 0x44, WB: true, Write: true, Thread: 2},
		{Addr: 0xFFFFFFFFFF40, PC: 0x48, Prefetch: true, Thread: 3},
		{Addr: 0x1000, PC: 0x48, Thread: 0},
	}
	out := roundTrip(t, in)
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("record %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := trace.NewRNG(seed)
		count := int(n)%500 + 1
		in := make([]trace.Access, count)
		for i := range in {
			in[i] = trace.Access{
				Addr:     rng.Uint64() &^ 63,
				PC:       uint64(rng.Intn(64)) * 4,
				Write:    rng.Bernoulli(0.3),
				WB:       rng.Bernoulli(0.1),
				Prefetch: rng.Bernoulli(0.1),
				Thread:   rng.Intn(16),
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, a := range in {
			if w.Write(a) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		out, err := ReadAll(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactness(t *testing.T) {
	// A sequential same-PC stream must encode in very few bytes per record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := w.Write(trace.Access{Addr: uint64(i) * 64, PC: 0x40}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if per := float64(buf.Len()) / n; per > 4.5 {
		t.Fatalf("%.1f bytes/record for a sequential stream, want <= 4.5", per)
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic must error")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must error")
	}
	// Truncated mid-record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(trace.Access{Addr: 1 << 40, PC: 7})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadAll(bytes.NewReader(trunc)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated trace gave %v, want ErrUnexpectedEOF", err)
	}
	// Negative thread rejected at write time.
	if err := w.Write(trace.Access{Thread: -1}); err == nil {
		t.Fatal("negative thread must error")
	}
}

func TestGeneratorLoops(t *testing.T) {
	accs := []trace.Access{{Addr: 64}, {Addr: 128}, {Addr: 192}}
	g := NewGenerator("t", accs)
	for round := 0; round < 3; round++ {
		for i := range accs {
			if got := g.Next(); got != accs[i] {
				t.Fatalf("round %d pos %d: %+v", round, i, got)
			}
		}
	}
	g.Next()
	g.Reset()
	if got := g.Next(); got != accs[0] {
		t.Fatal("Reset must rewind")
	}
}

func TestGeneratorEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGenerator("x", nil)
}

func TestRoundTripSyntheticModel(t *testing.T) {
	// Export a synthetic model and re-import it: the replayed stream must
	// match the original exactly.
	g := trace.NewRDDGen("m", trace.RDDSpec{
		Peaks: []trace.Peak{{Dist: 24, Weight: 0.5}}, Fresh: 0.4, WriteFrac: 0.2,
	}, 64, 1, 9)
	in := trace.Collect(g, 20000)
	out := roundTrip(t, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func mkAccess(addr, pc uint64) trace.Access {
	return trace.Access{Addr: addr, PC: pc}
}

// encodeSeq encodes n accesses whose address (in lines) and PC both count
// up from 1.
func encodeSeq(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= uint64(n); i++ {
		if err := w.Write(trace.Access{Addr: i * trace.LineSize, PC: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readBack decodes until error, returning the count and the final error.
func readBack(data []byte) (int, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := r.Read(); err != nil {
			return n, err
		}
		n++
	}
}

// positioned matches the record/byte position every mid-stream decode
// error carries.
var positioned = regexp.MustCompile(`record \d+ \(starting at byte \d+`)

// TestTruncatedTraceErrorsWithPosition cuts an encoding in half: decoding
// must stop with ErrUnexpectedEOF naming the record index and byte offset
// (a truncated transfer), not a bare EOF, after the intact prefix.
func TestTruncatedTraceErrorsWithPosition(t *testing.T) {
	data := encodeSeq(t, 1000)
	n, err := readBack(data[:len(data)/2])
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated trace: %d records, err %v; want ErrUnexpectedEOF", n, err)
	}
	if !positioned.MatchString(err.Error()) {
		t.Fatalf("error lacks record/byte position: %q", err)
	}
	if n == 0 {
		t.Fatal("no records decoded before the truncation point")
	}
}

// TestBitFlippedTraceNeverPanics decodes 50 encodings, each with 8 seeded
// single-bit flips past the header (bit rot in an archived trace): every
// outcome must be a clean stop or a positioned error, never a panic or an
// endless stream.
func TestBitFlippedTraceNeverPanics(t *testing.T) {
	data := encodeSeq(t, 500)
	const header = 5 // magic + one-byte version uvarint
	for seed := uint64(1); seed <= 50; seed++ {
		bad := append([]byte(nil), data...)
		rng := trace.NewRNG(seed)
		for i := 0; i < 8; i++ {
			bad[header+rng.Intn(len(bad)-header)] ^= 1 << rng.Intn(8)
		}
		n, err := readBack(bad)
		if err == nil {
			t.Fatalf("seed %d: reader never terminated", seed)
		}
		if err != io.EOF && !positioned.MatchString(err.Error()) {
			t.Fatalf("seed %d: unpositioned error after %d records: %v", seed, n, err)
		}
	}
}
