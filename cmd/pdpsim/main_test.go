package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pdp/internal/trace"
	"pdp/internal/tracefile"
)

// TestMain runs the command itself when PDPSIM_MAIN is set, so a test can
// drive it as a child process with its own flags, stderr and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("PDPSIM_MAIN") != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// pdpsim runs the command with args and returns its stderr and exit status.
func pdpsim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PDPSIM_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestTraceTagBound: a trace holding an address whose LLC tag is wider than
// 32 bits is refused at load, with a usage error that names the address,
// before it can panic in the cache.
func TestTraceTagBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "far.pdpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tracefile.NewWriter(f)
	if err == nil {
		err = w.Write(trace.Access{Addr: 1 << 50, PC: 0x400})
	}
	if err == nil {
		err = w.Flush()
	}
	if err := errors.Join(err, f.Close()); err != nil {
		t.Fatal(err)
	}
	stderr, code := pdpsim(t, "-trace", path)
	if code != 2 || !strings.Contains(stderr, "address 0x4000000000000") {
		t.Fatalf("exit %d, stderr %q: want exit 2 and a usage error naming address 0x4000000000000", code, stderr)
	}
}
