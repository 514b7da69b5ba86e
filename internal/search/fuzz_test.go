package search

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"podnas/internal/arch"
)

// FuzzCheckpointDecode drives LoadCheckpoint — the CRC32 envelope parser —
// with arbitrary file contents. The contract under fuzzing: never panic,
// and never return a nil error for a document outside the integrity
// envelope or a checkpoint without searcher state (resuming from either
// would corrupt a run).
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with a genuine envelope written by the production writer.
	seedDir := f.TempDir()
	cp := &Checkpointer{Path: filepath.Join(seedDir, "seed.ck")}
	rs, err := NewRandomSearch(arch.Default(), 1)
	if err != nil {
		f.Fatalf("seed searcher: %v", err)
	}
	if err := cp.save(rs, nil, []Result{{Index: 0, Arch: rs.Propose(), Reward: 0.5}}); err != nil {
		f.Fatalf("seed checkpoint: %v", err)
	}
	data, err := os.ReadFile(cp.Path)
	if err != nil {
		f.Fatalf("read seed checkpoint: %v", err)
	}
	f.Add(data)
	// Unenveloped document, truncations, and corruptions.
	f.Add([]byte(`{"kind":"RS","results":[{"index":0,"arch":[1,2],"reward":0.5}]}`))
	f.Add([]byte(`{"version":1,"crc32":123,"payload":{"kind":"RS","results":[]}}`))
	f.Add([]byte(`{"version":99,"crc32":0,"payload":{}}`))
	f.Add(data[:len(data)/2])
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"version":1,"crc32":0,"payload":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip("cannot materialize input")
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		var env struct {
			Version int             `json:"version"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Version != CheckpointVersion || env.Payload == nil {
			t.Fatalf("LoadCheckpoint accepted a document outside the envelope: %q", data)
		}
		if ck.Kind == "" {
			t.Fatalf("LoadCheckpoint accepted a checkpoint with no kind: %q", data)
		}
		// The accessors a resuming runner touches must hold up too.
		_ = ck.NumResults()
		_ = ck.restoredResults()
	})
}
