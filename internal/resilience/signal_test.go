package resilience

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
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
	var we *WatchdogError
	if !errors.Is(out.Err, context.Canceled) || errors.As(out.Err, &we) {
		t.Fatalf("want context.Canceled, not a watchdog timeout, got %v", out.Err)
	}

	// The shutdown path: flush the journal.
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sink.Bytes(), []byte(`"status":"failed"`)) {
		t.Fatalf("journal after shutdown flush lacks the interrupted run's failure: %q", sink.String())
	}
}

// TestMain runs wedged instead of the tests when RESILIENCE_WEDGED is set,
// so a test can signal it as a child process.
func TestMain(m *testing.M) {
	if os.Getenv("RESILIENCE_WEDGED") != "" {
		wedged()
	}
	os.Exit(m.Run())
}

// wedged takes the shutdown context, says "ready", and once the first
// signal has cancelled the context says "cancelled" and spins in a loop
// that never looks at the context again, like a run that ignores it.
func wedged() {
	ctx, stop := WithShutdown(context.Background())
	defer stop()
	fmt.Println("ready")
	<-ctx.Done()
	fmt.Println("cancelled")
	for {
		time.Sleep(time.Millisecond)
	}
}

// TestSecondSignalKills: the first SIGINT cancels the shutdown context;
// a second one kills a process that does not stop by itself.
func TestSecondSignalKills(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "RESILIENCE_WEDGED=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewReader(stdout)
	expect := func(want string) {
		t.Helper()
		if line, err := lines.ReadString('\n'); line != want+"\n" {
			t.Fatalf("child said %q (%v), want %q", line, err, want)
		}
	}
	expect("ready")
	cmd.Process.Signal(os.Interrupt)
	expect("cancelled")
	cmd.Process.Signal(os.Interrupt)

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		ws := cmd.ProcessState.Sys().(syscall.WaitStatus)
		if !ws.Signaled() || ws.Signal() != syscall.SIGINT {
			t.Fatalf("child ended with %v, want death by SIGINT", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("child survived a second SIGINT")
	}
}
