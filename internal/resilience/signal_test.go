package resilience

import (
	"bytes"
	"context"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"pdp/internal/telemetry"
)

// TestSIGINTFlushesPartialState models the harness shutdown path: a SIGINT
// arrives mid-campaign, the shutdown context cancels the supervised run,
// and the deferred flushes still write the telemetry journal and the
// checkpoint before exit.
func TestSIGINTFlushesPartialState(t *testing.T) {
	ctx, stop := WithShutdown(context.Background())
	defer stop()

	var sink bytes.Buffer
	j := telemetry.NewJournal(32)
	j.SetSink(&sink)
	cp := NewCheckpoint()
	cp.MarkDone("fig1", time.Second)
	path := filepath.Join(t.TempDir(), "ckpt.json")

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

	// The shutdown path: flush journal + save checkpoint.
	if err := cp.Save(path, j); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Fatal("journal sink empty after shutdown flush")
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done("fig1") {
		t.Fatal("checkpoint lost completed runs across shutdown")
	}
}
