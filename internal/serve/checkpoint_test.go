package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/obs"
	"hotg/internal/search"
	"hotg/internal/serve"
)

// latestCheckpointPath returns the file a corpus's latest.json points at.
func latestCheckpointPath(t *testing.T, corpus string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(corpus, "checkpoints", "latest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ptr struct {
		File string `json:"file"`
	}
	if err := json.Unmarshal(raw, &ptr); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(corpus, "checkpoints", ptr.File)
}

// flightEvents reads a session's flight dump over HTTP.
func flightEvents(t *testing.T, ts *httptest.Server, id string) []obs.Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []obs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestFinishedCorpusWarmStarts: a session that runs to completion retires
// its corpus's checkpoints, so resubmitting on the same corpus does not
// replay the finished search's tail from its last checkpoint — it starts a
// new search seeded from every ranked corpus input.
func TestFinishedCorpusWarmStarts(t *testing.T) {
	dir := t.TempDir()
	s, ts := newHTTPServer(t, serve.Options{Dir: dir, FlightRecorderSize: 1 << 16})
	spec := serve.Spec{Workload: "lexer", MaxRuns: 45, Workers: 1, CheckpointEvery: 10, CorpusID: "c"}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, first, 30*time.Second); st != serve.StateDone {
		t.Fatalf("first session: state %s, want done", st)
	}
	if got := first.Status().CheckpointRejected; got != "" {
		t.Fatalf("fresh corpus reported a rejected checkpoint: %s", got)
	}
	corpus := filepath.Join(dir, "corpus", "c")
	if _, err := os.Stat(filepath.Join(corpus, "checkpoints", "latest.json")); !os.IsNotExist(err) {
		t.Fatalf("a completed session kept its checkpoint (stat err %v)", err)
	}
	raw, err := os.ReadFile(filepath.Join(corpus, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, second, 30*time.Second); st != serve.StateDone {
		t.Fatalf("second session: state %s, want done", st)
	}
	var start *obs.Event
	for _, ev := range flightEvents(t, ts, second.ID) {
		if ev.Kind == "resume" {
			t.Fatalf("second session resumed the finished search: %+v", ev)
		}
		if ev.Kind == "run_start" && start == nil {
			start = &ev
		}
	}
	if start == nil {
		t.Fatal("second session's flight dump has no run_start")
	}
	if got, want := start.Num["seeds"], int64(len(manifest.Entries)); got != want || want <= 1 {
		t.Errorf("second session started from %d seeds, want all %d corpus entries", got, want)
	}
	if !second.Status().Resumed {
		t.Error("corpus-seeded session does not report itself resumed")
	}
}

// interruptedCorpus leaves corpus holding an interrupted lexer campaign: a
// session cancelled right after its first checkpoint, which it keeps.
func interruptedCorpus(t *testing.T, corpus string) {
	t.Helper()
	w, _ := lexapp.Get("lexer")
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := search.Options{
		MaxRuns: 30, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1, Ctx: ctx,
		Checkpoint: search.CheckpointOptions{Every: 5, Sink: func(*search.Snapshot) error {
			cancel()
			return nil
		}},
	}
	c, err := campaign.Start(corpus, w.Name, eng, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(search.Run(eng, opts)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRejected plants a bad checkpoint in a corpus — one with a
// flipped payload byte, one re-hashed at snapshot format version 1 — and
// submits a session over it. The session must not resume from it silently:
// it reports the rejection as a checkpoint_rejected flight event and as the
// checkpoint_rejected status field, then runs to completion without it.
func TestCheckpointRejected(t *testing.T) {
	cases := []struct {
		name, want string
		plant      func(t *testing.T, data []byte) []byte
	}{
		{"bitflip", "integrity hash mismatch", func(t *testing.T, data []byte) []byte {
			i := bytes.Index(data, []byte(`"mode":"higher-order"`))
			if i < 0 {
				t.Fatal("no mode field in checkpoint")
			}
			out := append([]byte(nil), data...)
			out[i+len(`"mode":"`)] ^= 0x20
			return out
		}},
		{"v1", "format version 1", func(t *testing.T, data []byte) []byte {
			var env map[string]json.RawMessage
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatal(err)
			}
			var snap map[string]json.RawMessage
			if err := json.Unmarshal(env["snapshot"], &snap); err != nil {
				t.Fatal(err)
			}
			snap["format_version"] = json.RawMessage("1")
			payload, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			env["snapshot"] = payload
			env["sha256"] = json.RawMessage(fmt.Sprintf(`"%x"`, sha256.Sum256(payload)))
			out, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newHTTPServer(t, serve.Options{Dir: dir, FlightRecorderSize: 1 << 16})
			corpus := filepath.Join(dir, "corpus", "c")
			interruptedCorpus(t, corpus)

			path := latestCheckpointPath(t, corpus)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.plant(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			ses, err := s.Submit(serve.Spec{Workload: "lexer", MaxRuns: 30, Workers: 1, CheckpointEvery: 5, CorpusID: "c"})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitState(t, ses, 30*time.Second); st != serve.StateDone {
				t.Fatalf("session: state %s, want done (%s)", st, ses.Status().Error)
			}
			status := ses.Status()
			if !strings.Contains(status.CheckpointRejected, tc.want) {
				t.Fatalf("status checkpoint_rejected = %q, want it to mention %q", status.CheckpointRejected, tc.want)
			}
			if status.Runs == 0 {
				t.Fatal("session did no work after rejecting the checkpoint")
			}

			found := false
			for _, ev := range flightEvents(t, ts, ses.ID) {
				if ev.Kind == "checkpoint_rejected" {
					found = true
					if !strings.Contains(ev.Str["err"], tc.want) {
						t.Errorf("checkpoint_rejected err = %q, want it to mention %q", ev.Str["err"], tc.want)
					}
				}
			}
			if !found {
				t.Error("no checkpoint_rejected event in the session's flight events")
			}
		})
	}
}
