package search

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
	"time"

	"podnas/internal/arch"
	"podnas/internal/fsatomic"
)

// CheckpointVersion is the on-disk schema version written by Checkpointer.
// LoadCheckpoint rejects versions it does not understand, so a future
// incompatible change fails loudly instead of restoring garbage state.
const CheckpointVersion = 1

// ErrBadCheckpoint marks every way a checkpoint can fail to restore: a
// truncated or corrupted file, a schema-version mismatch, or state that does
// not fit the run being resumed (wrong method, wrong agent count). Callers
// distinguish it with errors.Is; podnas re-exports it at the package root.
var ErrBadCheckpoint = errors.New("bad checkpoint")

// checkpointEnvelope is the on-disk wrapper: a schema version and a CRC32
// of the payload, so truncated or silently corrupted checkpoint files (a
// crash mid-rename on a non-atomic filesystem, bit rot on scratch storage)
// are rejected with a clear error instead of resuming a damaged search.
type checkpointEnvelope struct {
	Version  int             `json:"version"`
	Checksum uint32          `json:"crc32"` // IEEE CRC32 of the compacted payload
	Payload  json.RawMessage `json:"payload"`
}

// payloadChecksum hashes the JSON-compacted payload so the CRC is stable
// under re-indentation of the file.
func payloadChecksum(payload []byte) (uint32, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(buf.Bytes()), nil
}

// SealEnvelope wraps a JSON payload in the versioned+CRC on-disk envelope.
// It is exported so other durable stores (the nasd job manifests in
// internal/jobs) commit state under exactly the integrity envelope the
// checkpoint fuzzing and corruption tests already trust.
func SealEnvelope(payload []byte) ([]byte, error) {
	sum, err := payloadChecksum(payload)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(checkpointEnvelope{
		Version: CheckpointVersion, Checksum: sum, Payload: payload,
	}, "", " ")
}

// OpenEnvelope verifies the envelope around data and returns the inner
// payload. name is used in error messages only (typically the file path).
// Truncation, corruption, a CRC mismatch, or an unknown schema version all
// fail with errors wrapping ErrBadCheckpoint; so does a document with no
// envelope at all (it reads as version 0), since nothing vouches for it.
func OpenEnvelope(name string, data []byte) ([]byte, error) {
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("search: %w: %s is truncated or not valid JSON: %w", ErrBadCheckpoint, name, err)
	}
	if env.Version != CheckpointVersion {
		return nil, fmt.Errorf("search: %w: %s has schema version %d, this build reads version %d", ErrBadCheckpoint, name, env.Version, CheckpointVersion)
	}
	payload := []byte(env.Payload)
	sum, err := payloadChecksum(payload)
	if err != nil {
		return nil, fmt.Errorf("search: %w: %s payload is corrupted: %w", ErrBadCheckpoint, name, err)
	}
	if sum != env.Checksum {
		return nil, fmt.Errorf("search: %w: %s is corrupted: payload CRC32 %08x does not match recorded %08x", ErrBadCheckpoint, name, sum, env.Checksum)
	}
	return payload, nil
}

// SearcherState is one serialized searcher snapshot. Kind names the
// implementation ("AE", "RS", "NonAgingEvo", "PPO") so a checkpoint cannot
// be restored into the wrong algorithm.
type SearcherState struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Snapshotter is implemented by searchers (and PPO agents) whose full state
// can be captured and restored, enabling checkpoint/resume of a search.
// Snapshot and Restore follow the searcher's concurrency contract: callers
// serialize access.
type Snapshotter interface {
	Snapshot() (SearcherState, error)
	Restore(SearcherState) error
}

// resultRecord is the JSON form of a Result. Architectures serialize as
// their raw gene slices, so a checkpoint is self-contained without the
// search space.
type resultRecord struct {
	Index   int       `json:"index"`
	Arch    arch.Arch `json:"arch"`
	Reward  float64   `json:"reward"`
	Err     string    `json:"err,omitempty"`
	Seconds float64   `json:"seconds"`
	Retries int       `json:"retries,omitempty"`
}

// Checkpoint is the persisted state of a search run: the searcher (or RL
// agent ensemble) plus every completed result. A resumed run restores the
// searcher, counts the results toward the evaluation budget, and continues.
type Checkpoint struct {
	// Kind is the searcher kind for async runs, or "RL" for RunRL.
	Kind     string          `json:"kind"`
	Searcher *SearcherState  `json:"searcher,omitempty"`
	Agents   []SearcherState `json:"agents,omitempty"`
	Results  []resultRecord  `json:"results"`
	// Seed records the run seed for operator sanity checks; the runners do
	// not enforce it.
	Seed uint64 `json:"seed,omitempty"`
}

// NumResults returns the number of completed evaluations in the checkpoint.
func (ck *Checkpoint) NumResults() int { return len(ck.Results) }

// restoredResults decodes the stored results. Stored errors come back as
// opaque error strings, like LoadSearchResult does for histories.
func (ck *Checkpoint) restoredResults() []Result {
	out := make([]Result, 0, len(ck.Results))
	for _, r := range ck.Results {
		res := Result{
			Index: r.Index, Arch: r.Arch, Reward: r.Reward,
			Elapsed: time.Duration(r.Seconds * float64(time.Second)), Retries: r.Retries,
		}
		if r.Err != "" {
			res.Err = errors.New(r.Err)
		}
		out = append(out, res)
	}
	return out
}

// apply restores an async searcher from the checkpoint and returns the
// completed results.
func (ck *Checkpoint) apply(s Searcher) ([]Result, error) {
	snap, ok := s.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("search: cannot resume %s: %w: searcher does not support snapshots", s.Name(), ErrBadCheckpoint)
	}
	if ck.Searcher == nil {
		return nil, fmt.Errorf("search: %w: checkpoint (kind %q) holds no async searcher state", ErrBadCheckpoint, ck.Kind)
	}
	if err := snap.Restore(*ck.Searcher); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	return ck.restoredResults(), nil
}

// applyRL restores the PPO agent ensemble from the checkpoint and returns
// the completed results. Partially completed rounds are never stored, so
// the result count is always a whole number of rounds.
func (ck *Checkpoint) applyRL(agents []*PPOAgent) ([]Result, error) {
	if ck.Kind != "RL" {
		return nil, fmt.Errorf("search: %w: checkpoint kind %q is not an RL run", ErrBadCheckpoint, ck.Kind)
	}
	if len(ck.Agents) != len(agents) {
		return nil, fmt.Errorf("search: %w: checkpoint has %d agents, run configured %d", ErrBadCheckpoint, len(ck.Agents), len(agents))
	}
	for i, st := range ck.Agents {
		if err := agents[i].Restore(st); err != nil {
			return nil, fmt.Errorf("search: %w: agent %d: %w", ErrBadCheckpoint, i, err)
		}
	}
	return ck.restoredResults(), nil
}

// LoadCheckpoint reads a checkpoint written by a Checkpointer, verifying
// the schema version and payload CRC32. A truncated or corrupted file is
// rejected with a clear error, and so is a file without the envelope: a
// checkpoint that lost it cannot be verified.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := OpenEnvelope(path, data)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, fmt.Errorf("search: %w: %s: %w", ErrBadCheckpoint, path, err)
	}
	if ck.Kind == "" {
		return nil, fmt.Errorf("search: %w: %s holds no searcher state (is it a checkpoint file?)", ErrBadCheckpoint, path)
	}
	return ck, nil
}

// Checkpointer periodically persists search state to Path. Writes are
// atomic and durable (temp file + fsync + rename + directory fsync, via
// internal/fsatomic), so a crash mid-save leaves the previous checkpoint
// intact and a power loss immediately after a save cannot surface an empty
// or torn "committed" file.
type Checkpointer struct {
	Path string
	// Every is the save cadence in completed results (default 10). The
	// runner always writes a final checkpoint on exit regardless.
	Every int

	mu sync.Mutex
}

func (c *Checkpointer) due(nResults int) bool {
	every := c.Every
	if every <= 0 {
		every = 10
	}
	return nResults%every == 0
}

// save persists an async-run checkpoint (searcher non-nil) or defers to the
// RL form when agents are given.
func (c *Checkpointer) save(s Searcher, agents []*PPOAgent, results []Result) error {
	if agents != nil {
		return c.saveRL(agents, results)
	}
	snap, ok := s.(Snapshotter)
	if !ok {
		return fmt.Errorf("search: %s does not support snapshots", s.Name())
	}
	st, err := snap.Snapshot()
	if err != nil {
		return err
	}
	return c.write(&Checkpoint{Kind: st.Kind, Searcher: &st, Results: encodeResults(results)})
}

// saveRL persists the agent ensemble plus results after a completed round.
func (c *Checkpointer) saveRL(agents []*PPOAgent, results []Result) error {
	states := make([]SearcherState, len(agents))
	for i, a := range agents {
		st, err := a.Snapshot()
		if err != nil {
			return err
		}
		states[i] = st
	}
	return c.write(&Checkpoint{Kind: "RL", Agents: states, Results: encodeResults(results)})
}

func encodeResults(results []Result) []resultRecord {
	out := make([]resultRecord, 0, len(results))
	for _, r := range results {
		rec := resultRecord{
			Index: r.Index, Arch: r.Arch, Reward: r.Reward,
			Seconds: r.Elapsed.Seconds(), Retries: r.Retries,
		}
		if math.IsNaN(rec.Reward) || math.IsInf(rec.Reward, 0) {
			rec.Reward = DivergedReward // JSON cannot carry non-finite floats
		}
		if r.Err != nil {
			rec.Err = r.Err.Error()
		}
		out = append(out, rec)
	}
	return out
}

func (c *Checkpointer) write(ck *Checkpoint) error {
	payload, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return err
	}
	data, err := SealEnvelope(payload)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsatomic.WriteFile(c.Path, data, 0o644)
}
