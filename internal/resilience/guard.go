package resilience

import (
	"context"

	"pdp/internal/trace"
)

// guardEvery is the cancellation-check stride of GuardGenerator in
// accesses: frequent enough that a cancelled multi-million-access window
// stops within milliseconds, rare enough to stay off the hot path.
const guardEvery = 4096

// guardedGen wraps a trace.Generator with periodic context checks.
type guardedGen struct {
	g   trace.Generator
	ctx context.Context
	n   int64
}

// GuardGenerator wraps g so that every guardEvery generated accesses the
// run's context is checked. When the context is cancelled the generator
// aborts the run by panicking with an internal sentinel that
// Supervisor.Run converts back into the context's error — the
// cooperative-cancellation seam that lets watchdog timeouts and SIGINT
// interrupt access loops deep inside the experiments runner without
// threading a context through every layer. Guarded generators must
// therefore run under Supervisor.Run.
func GuardGenerator(ctx context.Context, g trace.Generator) trace.Generator {
	if ctx == nil {
		return g
	}
	return &guardedGen{g: g, ctx: ctx}
}

// Name implements trace.Generator.
func (g *guardedGen) Name() string { return g.g.Name() }

// Reset implements trace.Generator.
func (g *guardedGen) Reset() { g.g.Reset() }

// Next implements trace.Generator.
func (g *guardedGen) Next() trace.Access {
	g.n++
	if g.n%guardEvery == 0 {
		if err := g.ctx.Err(); err != nil {
			panic(cancelAbort{err: err})
		}
	}
	return g.g.Next()
}
