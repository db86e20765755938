package serve_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
			spec := serve.Spec{Workload: "lexer", MaxRuns: 30, Workers: 1, CheckpointEvery: 5, CorpusID: "c"}
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

			path := latestCheckpointPath(t, filepath.Join(dir, "corpus", "c"))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.plant(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			second, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitState(t, second, 30*time.Second); st != serve.StateDone {
				t.Fatalf("second session: state %s, want done (%s)", st, second.Status().Error)
			}
			status := second.Status()
			if !strings.Contains(status.CheckpointRejected, tc.want) {
				t.Fatalf("status checkpoint_rejected = %q, want it to mention %q", status.CheckpointRejected, tc.want)
			}
			if status.Runs == 0 {
				t.Fatal("session did no work after rejecting the checkpoint")
			}

			resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + second.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			found := false
			for sc.Scan() {
				var ev struct {
					Kind string            `json:"kind"`
					Str  map[string]string `json:"str"`
				}
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatalf("bad event line %q: %v", sc.Text(), err)
				}
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
