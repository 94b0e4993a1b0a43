package resilience

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"pdp/internal/telemetry"
)

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 1

// RunMark records the completion of one run id.
type RunMark struct {
	// Seconds is the run's wall-clock duration.
	Seconds float64 `json:"seconds,omitempty"`
	// UnixSec is the completion time.
	UnixSec int64 `json:"unix_sec,omitempty"`
}

// Checkpoint is the resumable state of a campaign: the set of completed
// run ids, which `repro -resume` skips. A finished run is the only resume
// unit; an interrupted one reruns from its start. All methods are safe for
// concurrent use.
type Checkpoint struct {
	mu sync.Mutex
	d  checkpointData
}

// RunConfig records the run parameters a checkpoint was produced under.
// Only parameters that change what a completed run means are included —
// the jobs count is deliberately absent, because tables are identical at
// every jobs count and a `-jobs 8` campaign may resume a `-jobs 1` one.
type RunConfig struct {
	Accesses            int    `json:"accesses,omitempty"`
	MCAccessesPerThread int    `json:"mc_accesses_per_thread,omitempty"`
	Mixes4              int    `json:"mixes4,omitempty"`
	Mixes16             int    `json:"mixes16,omitempty"`
	Seed                uint64 `json:"seed,omitempty"`
}

// checkpointData is the JSON shape of a checkpoint file.
type checkpointData struct {
	Version int `json:"version"`
	// Config is the recorded run configuration (zero value: unrecorded,
	// written by pre-config checkpoints).
	Config RunConfig `json:"config,omitempty"`
	// Completed maps run ids (experiment ids) to their completion marks.
	Completed map[string]RunMark `json:"completed,omitempty"`
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{d: checkpointData{
		Version:   CheckpointVersion,
		Completed: map[string]RunMark{},
	}}
}

// DecodeCheckpoint parses and validates checkpoint JSON.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var d checkpointData
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if d.Version != CheckpointVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", d.Version)
	}
	if d.Completed == nil {
		d.Completed = map[string]RunMark{}
	}
	return &Checkpoint{d: d}, nil
}

// LoadCheckpoint reads a checkpoint file; a missing file yields a fresh
// empty checkpoint (resuming a campaign that never started is a no-op).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewCheckpoint(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// SetConfig stamps the run configuration into the checkpoint.
func (c *Checkpoint) SetConfig(rc RunConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.d.Config = rc
}

// ConfigMatches reports whether a resume under rc may trust this
// checkpoint's completion marks. A zero recorded config (a checkpoint
// written before configs were recorded, or an empty checkpoint) matches
// anything; otherwise every field must agree, and the returned reason
// names the first mismatch.
func (c *Checkpoint) ConfigMatches(rc RunConfig) (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.d.Config
	if rec == (RunConfig{}) {
		return true, ""
	}
	switch {
	case rec.Accesses != rc.Accesses:
		return false, fmt.Sprintf("recorded accesses=%d, current %d", rec.Accesses, rc.Accesses)
	case rec.MCAccessesPerThread != rc.MCAccessesPerThread:
		return false, fmt.Sprintf("recorded mc-accesses=%d, current %d", rec.MCAccessesPerThread, rc.MCAccessesPerThread)
	case rec.Mixes4 != rc.Mixes4:
		return false, fmt.Sprintf("recorded mixes4=%d, current %d", rec.Mixes4, rc.Mixes4)
	case rec.Mixes16 != rc.Mixes16:
		return false, fmt.Sprintf("recorded mixes16=%d, current %d", rec.Mixes16, rc.Mixes16)
	case rec.Seed != rc.Seed:
		return false, fmt.Sprintf("recorded seed=%d, current %d", rec.Seed, rc.Seed)
	}
	return true, ""
}

// Done reports whether run id completed.
func (c *Checkpoint) Done(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.d.Completed[id]
	return ok
}

// MarkDone records run id as completed.
func (c *Checkpoint) MarkDone(id string, dur time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.d.Completed[id] = RunMark{Seconds: dur.Seconds(), UnixSec: time.Now().Unix()}
}

// CompletedCount returns the number of completed run ids.
func (c *Checkpoint) CompletedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.d.Completed)
}

// Save writes the checkpoint atomically and durably (temp file + fsync +
// rename + parent-directory fsync, via WriteFileAtomic), so a crash — or a
// power cut — mid-save never corrupts or loses an existing checkpoint.
// When journal is non-nil the save is recorded as a checkpoint event.
func (c *Checkpoint) Save(path string, journal *telemetry.Journal) error {
	c.mu.Lock()
	data, err := json.MarshalIndent(c.d, "", "  ")
	completed := len(c.d.Completed)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	data = append(data, '\n')

	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	journal.Append(telemetry.CheckpointRecord{
		Kind: telemetry.KindCheckpoint, Path: path, Completed: completed,
	})
	return nil
}
