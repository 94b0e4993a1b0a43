package resilience

import (
	"bytes"
	"context"
	"syscall"
	"testing"
	"time"

	"pdp/internal/telemetry"
)

// TestSIGINTFlushesPartialState models the harness shutdown path: a SIGINT
// arrives mid-campaign, the shutdown context cancels the guarded
// supervised run, which fails without being mistaken for a watchdog
// timeout, and the deferred flush still writes the telemetry journal
// before exit.
func TestSIGINTFlushesPartialState(t *testing.T) {
	ctx, stop := WithShutdown(context.Background())
	defer stop()

	var sink bytes.Buffer
	j := telemetry.NewJournal(32)
	j.SetSink(&sink)

	s := &Supervisor{Journal: j}
	go func() {
		time.Sleep(20 * time.Millisecond)
		syscall.Kill(syscall.Getpid(), syscall.SIGINT)
	}()
	out := s.Run(ctx, "interrupted", func(ctx context.Context) error {
		g := GuardGenerator(ctx, &loopGen{})
		for {
			g.Next()
		}
	})
	if !out.Failed() {
		t.Fatal("interrupted run reported success")
	}
	if out.TimedOut {
		t.Fatal("shutdown misreported as watchdog timeout")
	}

	// The shutdown path: flush the journal.
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sink.Bytes(), []byte(`"status":"failed"`)) {
		t.Fatalf("journal after shutdown flush lacks the interrupted run's failure: %q", sink.String())
	}
}
