// Package tracefile defines a compact binary format for memory-access
// traces, so externally captured traces (e.g. from a binary-instrumentation
// tool) can drive the simulator, and the synthetic models can be exported
// for other tools. The format is a magic header followed by
// varint-delta-encoded records; typical synthetic traces compress to a few
// bytes per access.
//
// Layout (little-endian varints, encoding/binary Uvarint):
//
//	magic   "PDPT"            4 bytes
//	version uvarint           currently 1
//	records:
//	  flags   1 byte          bit0 write, bit1 writeback, bit2 prefetch,
//	                          bit3 addr-delta-negative, bit4 pc-repeat
//	  thread  uvarint
//	  addr    uvarint         zig-zag-free |delta| from previous addr
//	  pc      uvarint         absent when pc-repeat is set
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pdp/internal/trace"
)

var magic = [4]byte{'P', 'D', 'P', 'T'}

// Version is the current format version.
const Version = 1

// flag bits
const (
	fWrite    = 1 << 0
	fWB       = 1 << 1
	fPrefetch = 1 << 2
	fAddrNeg  = 1 << 3
	fPCRepeat = 1 << 4
)

// Writer streams accesses to an io.Writer in the trace format.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	prevPC   uint64
	n        uint64
	buf      [binary.MaxVarintLen64]byte
}

// NewWriter starts a trace stream on w.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriter(w)}
	if _, err := tw.w.Write(magic[:]); err != nil {
		return nil, err
	}
	n := binary.PutUvarint(tw.buf[:], Version)
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Write appends one access.
func (tw *Writer) Write(a trace.Access) error {
	var flags byte
	if a.Write {
		flags |= fWrite
	}
	if a.WB {
		flags |= fWB
	}
	if a.Prefetch {
		flags |= fPrefetch
	}
	delta := int64(a.Addr) - int64(tw.prevAddr)
	if delta < 0 {
		flags |= fAddrNeg
		delta = -delta
	}
	if a.PC == tw.prevPC {
		flags |= fPCRepeat
	}
	if err := tw.w.WriteByte(flags); err != nil {
		return err
	}
	if a.Thread < 0 {
		return fmt.Errorf("tracefile: negative thread %d", a.Thread)
	}
	n := binary.PutUvarint(tw.buf[:], uint64(a.Thread))
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(tw.buf[:], uint64(delta))
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return err
	}
	if flags&fPCRepeat == 0 {
		n = binary.PutUvarint(tw.buf[:], a.PC)
		if _, err := tw.w.Write(tw.buf[:n]); err != nil {
			return err
		}
	}
	tw.prevAddr = a.Addr
	tw.prevPC = a.PC
	tw.n++
	return nil
}

// Count returns the number of records written.
func (tw *Writer) Count() uint64 { return tw.n }

// Flush completes the stream.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// countingReader counts bytes consumed from the underlying stream so
// decode errors can report where the corruption sits.
type countingReader struct {
	r   *bufio.Reader
	off int64
}

func (cr *countingReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.off++
	}
	return b, err
}

// Reader decodes a trace stream.
type Reader struct {
	r        countingReader
	rec      uint64
	prevAddr uint64
	prevPC   uint64
}

// NewReader validates the header and prepares decoding.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: countingReader{r: bufio.NewReader(r)}}
	var m [4]byte
	for i := range m {
		b, err := tr.r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("tracefile: reading magic: %w", unexpectAt(err, tr.r.off > 0))
		}
		m[i] = b
	}
	if m != magic {
		return nil, errors.New("tracefile: bad magic (not a PDPT trace)")
	}
	v, err := binary.ReadUvarint(&tr.r)
	if err != nil {
		return nil, fmt.Errorf("tracefile: reading version: %w", unexpect(err))
	}
	if v != Version {
		return nil, fmt.Errorf("tracefile: unsupported version %d", v)
	}
	return tr, nil
}

// Read returns the next access, or io.EOF at the end of the stream. A
// mid-record failure (truncation or varint overflow) is wrapped with the
// failing record's index and starting byte offset, so corrupt-trace
// reports from fault campaigns pinpoint the damage.
func (tr *Reader) Read() (trace.Access, error) {
	start := tr.r.off
	flags, err := tr.r.ReadByte()
	if err != nil {
		return trace.Access{}, err // io.EOF at a record boundary is clean
	}
	thread, err := binary.ReadUvarint(&tr.r)
	if err != nil {
		return trace.Access{}, tr.corrupt("thread", start, err)
	}
	delta, err := binary.ReadUvarint(&tr.r)
	if err != nil {
		return trace.Access{}, tr.corrupt("addr delta", start, err)
	}
	addr := tr.prevAddr
	if flags&fAddrNeg != 0 {
		addr -= delta
	} else {
		addr += delta
	}
	pc := tr.prevPC
	if flags&fPCRepeat == 0 {
		pc, err = binary.ReadUvarint(&tr.r)
		if err != nil {
			return trace.Access{}, tr.corrupt("pc", start, err)
		}
	}
	tr.prevAddr = addr
	tr.prevPC = pc
	tr.rec++
	return trace.Access{
		Addr:     addr,
		PC:       pc,
		Write:    flags&fWrite != 0,
		WB:       flags&fWB != 0,
		Prefetch: flags&fPrefetch != 0,
		Thread:   int(thread),
	}, nil
}

// corrupt annotates a mid-record decode failure with positional context.
func (tr *Reader) corrupt(field string, start int64, err error) error {
	return fmt.Errorf("tracefile: record %d (starting at byte %d, decoding %s): %w",
		tr.rec, start, field, unexpect(err))
}

func unexpect(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// unexpectAt maps EOF to ErrUnexpectedEOF only when some bytes were
// already consumed (mid-header truncation); a zero-byte stream keeps the
// clean io.EOF.
func unexpectAt(err error, mid bool) error {
	if mid {
		return unexpect(err)
	}
	return err
}

// ReadAll decodes every record (convenience for bounded traces).
func ReadAll(r io.Reader) ([]trace.Access, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []trace.Access
	for {
		a, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
}

// Generator adapts a fully-read trace to trace.Generator, looping at the
// end (matching the paper's thread-rewind semantics, Sec. 5).
type Generator struct {
	name string
	accs []trace.Access
	pos  int
}

// NewGenerator wraps decoded accesses as a looping generator.
func NewGenerator(name string, accs []trace.Access) *Generator {
	if len(accs) == 0 {
		panic("tracefile: empty trace")
	}
	return &Generator{name: name, accs: accs}
}

// Name implements trace.Generator.
func (g *Generator) Name() string { return g.name }

// Reset implements trace.Generator.
func (g *Generator) Reset() { g.pos = 0 }

// Next implements trace.Generator.
func (g *Generator) Next() trace.Access {
	a := g.accs[g.pos]
	g.pos++
	if g.pos == len(g.accs) {
		g.pos = 0
	}
	return a
}

// Fill implements trace.Filler.
func (g *Generator) Fill(buf []trace.Access) {
	for len(buf) > 0 {
		n := copy(buf, g.accs[g.pos:])
		buf = buf[n:]
		if g.pos += n; g.pos == len(g.accs) {
			g.pos = 0
		}
	}
}
