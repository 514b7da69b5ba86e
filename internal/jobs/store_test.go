package jobs

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"podnas/internal/search"
)

func TestStoreRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	j := &Job{
		ID:          "jabc123",
		Spec:        Spec{Method: "ae", Evals: 10, Workers: 2, Seed: 7},
		State:       StateDone,
		Attempt:     2,
		Evals:       10,
		SubmittedAt: time.Now().UTC().Truncate(time.Second),
		Result:      &Result{BestArch: "x", BestReward: 0.95, Evals: 10, Rung: "search"},
	}
	if err := st.Save(j); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := st.Load(j.ID)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.State != StateDone || got.Result == nil || got.Result.BestArch != "x" || got.Spec.Seed != 7 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := st.Load("jmissing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v, want ErrNotFound", err)
	}
	if err := st.Save(&Job{ID: "../escape", Spec: j.Spec, State: StateQueued}); err == nil {
		t.Fatalf("path-escaping id accepted")
	}
}

func TestStoreLoadAllSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	good := &Job{ID: "jgood", Spec: Spec{Method: "rs", Evals: 1}, State: StateQueued, SubmittedAt: time.Now().UTC()}
	if err := st.Save(good); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := os.WriteFile(st.ManifestPath("jbad"), []byte("{torn"), 0o644); err != nil {
		t.Fatalf("write corrupt: %v", err)
	}
	jobs, errs := st.LoadAll()
	if len(jobs) != 1 || jobs[0].ID != "jgood" {
		t.Fatalf("jobs %+v, want only jgood", jobs)
	}
	if len(errs) != 1 {
		t.Fatalf("errs %v, want exactly one corrupt report", errs)
	}
}

func TestStoreRemove(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	j := &Job{ID: "jrm", Spec: Spec{Method: "rs", Evals: 1}, State: StateQueued, SubmittedAt: time.Now().UTC()}
	if err := st.Save(j); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := os.WriteFile(st.TracePath(j.ID), []byte("{}\n"), 0o644); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if err := st.Remove(j.ID); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := os.Stat(st.ManifestPath(j.ID)); !os.IsNotExist(err) {
		t.Fatalf("manifest survived remove")
	}
	if err := st.Remove(j.ID); err != nil {
		t.Fatalf("double remove: %v", err)
	}
}

func TestDecodeManifestRejections(t *testing.T) {
	seal := func(payload string) []byte {
		data, err := search.SealEnvelope([]byte(payload))
		if err != nil {
			t.Fatalf("seal: %v", err)
		}
		return data
	}
	cases := map[string][]byte{
		"empty":          nil,
		"not json":       []byte("hello"),
		"truncated":      seal(`{"id":"jx","state":"queued","spec":{"method":"rs","evals":1}}`)[:20],
		"payload array":  seal(`[1,2,3]`),
		"missing id":     seal(`{"state":"queued","spec":{"method":"rs","evals":1}}`),
		"bad id":         seal(`{"id":"../x","state":"queued","spec":{"method":"rs","evals":1}}`),
		"unknown state":  seal(`{"id":"jx","state":"zombie","spec":{"method":"rs","evals":1}}`),
		"bad spec":       seal(`{"id":"jx","state":"queued","spec":{"method":"rs","evals":0}}`),
		"neg attempt":    seal(`{"id":"jx","state":"queued","attempt":-1,"spec":{"method":"rs","evals":1}}`),
		"done no result": seal(`{"id":"jx","state":"done","spec":{"method":"rs","evals":1}}`),
	}
	for name, data := range cases {
		if _, err := DecodeManifest(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	ok := seal(`{"id":"jx","state":"queued","spec":{"method":"rs","evals":1}}`)
	if _, err := DecodeManifest(ok); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

// FuzzJobManifestDecode hammers the manifest parser with corrupt,
// truncated, and mutated inputs: it must reject bad bytes with an error —
// never panic — and anything it accepts must sit inside the integrity
// envelope and re-encode into a manifest it accepts again (no bogus or
// unverified Jobs slip through).
func FuzzJobManifestDecode(f *testing.F) {
	valid := &Job{
		ID:          "jfeed0001",
		Spec:        Spec{Method: "rs", Evals: 3, Workers: 1},
		State:       StateRunning,
		Attempt:     1,
		SubmittedAt: time.Unix(1700000000, 0).UTC(),
	}
	payload, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := search.SealEnvelope(payload)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(payload) // unenveloped: must be rejected
	f.Add([]byte(`{"version":1,"crc":0,"payload":{}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	if len(sealed) > 10 {
		f.Add(sealed[:len(sealed)/2]) // truncation
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeManifest(data)
		if err != nil {
			return
		}
		// Accepted: the bytes were a sealed envelope, the invariants
		// DecodeManifest promises must hold, and the manifest must survive
		// a save/load cycle.
		var env struct {
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Payload == nil {
			t.Fatalf("accepted a manifest outside the envelope: %q", data)
		}
		if j.ID == "" || !validState(j.State) || j.Spec.Evals < 1 || j.Attempt < 0 || j.Evals < 0 {
			t.Fatalf("accepted manifest violates invariants: %+v", j)
		}
		re, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		resealed, err := search.SealEnvelope(re)
		if err != nil {
			t.Fatalf("re-seal: %v", err)
		}
		if _, err := DecodeManifest(resealed); err != nil {
			t.Fatalf("re-decode of accepted manifest failed: %v", err)
		}
	})
}
