package campaign_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/search"
)

// lexerSnapshot runs the §7 lexer search at one worker, checkpointing every
// 30 runs, and returns the snapshot taken at run `at` (a multiple of 30),
// detached from the live search by a JSON round trip.
func lexerSnapshot(tb testing.TB, at int) *search.Snapshot {
	tb.Helper()
	w, _ := lexapp.Get("lexer")
	var raw []byte
	search.Run(concolic.New(w.Build(), concolic.ModeHigherOrder), search.Options{
		MaxRuns: at + 30, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1,
		Checkpoint: search.CheckpointOptions{Every: 30, Sink: func(s *search.Snapshot) error {
			if s.Runs != at {
				return nil
			}
			var err error
			raw, err = json.Marshal(s)
			return err
		}},
	})
	if raw == nil {
		tb.Fatalf("no checkpoint at run %d", at)
	}
	var snap search.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		tb.Fatal(err)
	}
	return &snap
}

// savedCheckpoint saves snap into a fresh campaign and returns the campaign
// and the checkpoint file's path.
func savedCheckpoint(tb testing.TB, snap *search.Snapshot) (*campaign.Campaign, string) {
	tb.Helper()
	dir := tb.TempDir()
	c, err := campaign.Open(dir, "lexer", "higher-order", nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.SaveCheckpoint(snap); err != nil {
		tb.Fatal(err)
	}
	return c, filepath.Join(dir, "checkpoints", fmt.Sprintf("ckpt-%09d.json", snap.Runs))
}

// TestCheckpointPrettyPrinted: a checkpoint reformatted by an external tool
// (whitespace only) no longer matches its hash byte for byte, but still
// verifies through the compacted-payload fallback and loads the same state.
func TestCheckpointPrettyPrinted(t *testing.T) {
	snap := lexerSnapshot(t, 60)
	c, path := savedCheckpoint(t, snap)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, data, "", "  "); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pretty.Bytes(), data) {
		t.Fatal("indenting left the checkpoint unchanged")
	}
	if err := os.WriteFile(path, pretty.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := c.LatestCheckpoint()
	if err != nil {
		t.Fatalf("pretty-printed checkpoint rejected: %v", err)
	}
	want, _ := json.Marshal(snap)
	have, _ := json.Marshal(got)
	if !bytes.Equal(want, have) {
		t.Error("pretty-printed checkpoint loads a different snapshot")
	}
}

// TestCheckpointRejectsV1: a checkpoint holding a format-1 snapshot (expected
// traces spelled out as JSON objects), correctly hashed, is rejected with the
// format-version error — never upgraded, never resumed from.
func TestCheckpointRejectsV1(t *testing.T) {
	c, path := savedCheckpoint(t, lexerSnapshot(t, 60))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env, snap map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env["snapshot"], &snap); err != nil {
		t.Fatal(err)
	}
	var cold []map[string]json.RawMessage
	if err := json.Unmarshal(snap["cold"], &cold); err != nil || len(cold) == 0 {
		t.Fatalf("no cold queue to rewrite (%v)", err)
	}
	for _, it := range cold {
		it["expected"] = json.RawMessage(`[{"ID":3,"Taken":true},{"ID":7,"Taken":false}]`)
	}
	snap["cold"], _ = json.Marshal(cold)
	snap["format_version"] = json.RawMessage("1")
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	env["snapshot"] = payload
	env["sha256"] = json.RawMessage(fmt.Sprintf(`"%x"`, sha256.Sum256(payload)))
	v1, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LatestCheckpoint(); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Errorf("v1 checkpoint: LatestCheckpoint = %v, want the format-version error", err)
	}
}

// BenchmarkSaveCheckpoint times one SaveCheckpoint (encode, hash, frame,
// fsync'd atomic write) of the lexer search's snapshot at run 270.
func BenchmarkSaveCheckpoint(b *testing.B) {
	snap := lexerSnapshot(b, 270)
	c, path := savedCheckpoint(b, snap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SaveCheckpoint(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCheckpointBytes(b, path)
}

// BenchmarkLoadCheckpoint times one LatestCheckpoint (read, verify, decode)
// of the same snapshot.
func BenchmarkLoadCheckpoint(b *testing.B) {
	c, path := savedCheckpoint(b, lexerSnapshot(b, 270))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LatestCheckpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCheckpointBytes(b, path)
}

// BenchmarkCheckpointedSearch times a whole 300-run lexer search at one
// worker that checkpoints every 30 runs into a campaign, as a persistent
// campaign does, and reports the checkpoint bytes it wrote.
func BenchmarkCheckpointedSearch(b *testing.B) {
	w, _ := lexapp.Get("lexer")
	prog := w.Build()
	var written int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := campaign.Open(b.TempDir(), "lexer", "higher-order", nil)
		if err != nil {
			b.Fatal(err)
		}
		eng := concolic.New(prog, concolic.ModeHigherOrder)
		b.StartTimer()
		st := search.Run(eng, search.Options{
			MaxRuns: 300, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1,
			Checkpoint: search.CheckpointOptions{Every: 30, Sink: func(s *search.Snapshot) error {
				if err := c.SaveCheckpoint(s); err != nil {
					return err
				}
				fi, err := os.Stat(filepath.Join(c.Dir, "checkpoints", fmt.Sprintf("ckpt-%09d.json", s.Runs)))
				if err == nil {
					written += fi.Size()
				}
				return err
			}},
		})
		if st.CheckpointError != "" || st.Checkpoints == 0 {
			b.Fatalf("%d checkpoints, error %q", st.Checkpoints, st.CheckpointError)
		}
	}
	b.ReportMetric(float64(written)/float64(b.N), "ckpt_bytes/op")
}

func reportCheckpointBytes(b *testing.B, path string) {
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "bytes/ckpt")
}
