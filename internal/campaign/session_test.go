package campaign_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/obs"
	"hotg/internal/search"
)

// sessionOpts is the search every Session case runs: the §7 lexer at one
// worker, checkpointing every 10 runs.
func sessionOpts(w *lexapp.Workload, maxRuns int) search.Options {
	return search.Options{
		MaxRuns: maxRuns, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1,
		Checkpoint: search.CheckpointOptions{Every: 10},
	}
}

// runStarted runs one whole session over dir — Start, search, Finish — and
// returns it with the options Start prepared and the search's stats.
func runStarted(t *testing.T, dir string, w *lexapp.Workload, opts search.Options) (*campaign.Session, search.Options, *search.Stats) {
	t.Helper()
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	s, err := campaign.Start(dir, w.Name, eng, &opts)
	if err != nil {
		t.Fatal(err)
	}
	st := search.Run(eng, opts)
	if err := s.Finish(st); err != nil {
		t.Fatal(err)
	}
	return s, opts, st
}

// interrupt runs a 60-run session over dir that is cancelled right after its
// second checkpoint, and returns its stats.
func interrupt(t *testing.T, dir string, w *lexapp.Workload) *search.Stats {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := sessionOpts(w, 60)
	opts.Ctx = ctx
	saved := 0
	opts.Checkpoint.Sink = func(*search.Snapshot) error {
		if saved++; saved == 2 {
			cancel()
		}
		return nil
	}
	_, _, st := runStarted(t, dir, w, opts)
	if !st.Budget.Cancelled || st.Runs >= 60 {
		t.Fatalf("session was not interrupted: %s", st.Summary())
	}
	return st
}

func latestExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "checkpoints", "latest.json"))
	return err == nil
}

// TestCampaignSession pins the one session lifecycle every front end shares: seeds,
// resume, retire-on-finish, checkpoint rejection, and the lock.
func TestCampaignSession(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	cases := []struct {
		name string
		run  func(t *testing.T, dir string)
	}{
		{"fresh directory keeps the caller's seeds", func(t *testing.T, dir string) {
			s, opts, _ := runStarted(t, dir, w, sessionOpts(w, 20))
			if s.Seeded || s.Rejected != nil || opts.Restore != nil {
				t.Fatalf("fresh session: seeded=%v rejected=%v restored=%v", s.Seeded, s.Rejected, opts.Restore != nil)
			}
			if !reflect.DeepEqual(opts.Seeds, w.Seeds) {
				t.Fatalf("seeds = %v, want the caller's %v", opts.Seeds, w.Seeds)
			}
			if len(s.Entries()) == 0 {
				t.Fatal("session recorded no runs into the corpus")
			}
		}},
		{"cancelled session resumes bit-identically at its own budget", func(t *testing.T, dir string) {
			ref := search.Run(concolic.New(w.Build(), concolic.ModeHigherOrder), sessionOpts(w, 60))
			refCanon, err := ref.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			st1 := interrupt(t, dir, w)
			if !latestExists(dir) {
				t.Fatal("a cancelled session retired its checkpoint")
			}
			_, opts, st := runStarted(t, dir, w, sessionOpts(w, 7))
			if opts.Restore == nil || opts.Restore.Runs == 0 || opts.MaxRuns != 60 {
				t.Fatalf("resume: restored=%v max_runs=%d (interrupted at %d)", opts.Restore != nil, opts.MaxRuns, st1.Runs)
			}
			got, err := st.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(refCanon) {
				t.Errorf("resumed session diverged:\nuninterrupted: %s\nresumed:       %s", refCanon, got)
			}
			if latestExists(dir) {
				t.Error("a finished session kept its checkpoint")
			}
		}},
		{"completed session warm-starts the next from all ranked entries", func(t *testing.T, dir string) {
			runStarted(t, dir, w, sessionOpts(w, 30))
			if latestExists(dir) {
				t.Fatal("a finished session kept its checkpoint")
			}
			s, opts, _ := runStarted(t, dir, w, sessionOpts(w, 10))
			if !s.Seeded || opts.Restore != nil {
				t.Fatalf("second session: seeded=%v restored=%v", s.Seeded, opts.Restore != nil)
			}
			var want [][]int64
			for _, e := range campaign.Schedule(s.Entries()) {
				if e.Session < s.Session {
					want = append(want, e.Input)
				}
			}
			if !reflect.DeepEqual(opts.Seeds, want) {
				t.Fatalf("seeds = %v, want every ranked corpus input %v", opts.Seeds, want)
			}
		}},
		{"bit-flipped checkpoint is rejected and reported", func(t *testing.T, dir string) {
			interrupt(t, dir, w)
			ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoints", "ckpt-*.json"))
			if len(ckpts) == 0 {
				t.Fatal("interrupted session left no checkpoint")
			}
			path := ckpts[len(ckpts)-1]
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			i := strings.Index(string(data), `"mode":"higher-order"`) + len(`"mode":"`)
			data[i] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := sessionOpts(w, 10)
			opts.Obs = &obs.Obs{Trace: obs.NewTracer(nil).Keep()}
			s, opts, _ := runStarted(t, dir, w, opts)
			if s.Rejected == nil || !strings.Contains(s.Rejected.Error(), "integrity hash mismatch") {
				t.Fatalf("Rejected = %v, want an integrity hash mismatch", s.Rejected)
			}
			if opts.Restore != nil || !s.Seeded {
				t.Fatalf("after rejection: restored=%v seeded=%v, want a corpus start", opts.Restore != nil, s.Seeded)
			}
			evs := opts.Obs.Trace.Events()
			if len(evs) == 0 || evs[0].Kind != "checkpoint_rejected" || evs[0].Str["err"] != s.Rejected.Error() {
				t.Fatalf("first event = %+v, want checkpoint_rejected carrying the error", evs[:min(1, len(evs))])
			}
		}},
		{"format-2 checkpoint is rejected and reported", func(t *testing.T, dir string) {
			// Format 3 changed how target dedup keys encode branch IDs, so a
			// format-2 key set cannot be reused: the checkpoint must be
			// refused, not resumed with keys that never match.
			interrupt(t, dir, w)
			c, err := campaign.Open(dir, w.Name, concolic.ModeHigherOrder.String(), nil)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := c.LatestCheckpoint()
			if err != nil || snap == nil {
				t.Fatalf("latest checkpoint: %v, %v", snap, err)
			}
			snap.FormatVersion = 2
			if err := c.SaveCheckpoint(snap); err != nil {
				t.Fatal(err)
			}
			opts := sessionOpts(w, 10)
			opts.Obs = &obs.Obs{Trace: obs.NewTracer(nil).Keep()}
			s, opts, _ := runStarted(t, dir, w, opts)
			if s.Rejected == nil || !strings.Contains(s.Rejected.Error(), "format version 2") {
				t.Fatalf("Rejected = %v, want a format version 2 rejection", s.Rejected)
			}
			if opts.Restore != nil || !s.Seeded {
				t.Fatalf("after rejection: restored=%v seeded=%v, want a corpus start", opts.Restore != nil, s.Seeded)
			}
			evs := opts.Obs.Trace.Events()
			if len(evs) == 0 || evs[0].Kind != "checkpoint_rejected" || evs[0].Str["err"] != s.Rejected.Error() {
				t.Fatalf("first event = %+v, want checkpoint_rejected carrying the error", evs[:min(1, len(evs))])
			}
		}},
		{"held lock fails with the owner's pid", func(t *testing.T, dir string) {
			l, err := campaign.AcquireLock(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Release()
			opts := sessionOpts(w, 10)
			_, err = campaign.Start(dir, w.Name, concolic.New(w.Build(), concolic.ModeHigherOrder), &opts)
			if want := fmt.Sprintf("locked by live session (pid %d)", os.Getpid()); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Start over a held lock: err = %v, want %q", err, want)
			}
		}},
		{"Finish releases the lock when Commit fails", func(t *testing.T, dir string) {
			opts := sessionOpts(w, 10)
			s, err := campaign.Start(dir, w.Name, concolic.New(w.Build(), concolic.ModeHigherOrder), &opts)
			if err != nil {
				t.Fatal(err)
			}
			// A non-empty directory where the manifest goes: its atomic
			// rename cannot replace it.
			if err := os.MkdirAll(filepath.Join(dir, "manifest.json", "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := s.Finish(nil); err == nil {
				t.Fatal("Finish reported no commit failure")
			}
			l, err := campaign.AcquireLock(dir)
			if err != nil {
				t.Fatalf("lock still held after a failed Finish: %v", err)
			}
			l.Release()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, t.TempDir()) })
	}
}
