package campaign_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/search"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := campaign.WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := campaign.WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content = %q, want %q", got, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("leftover temp file %q", e.Name())
		}
	}
	if err := campaign.WriteFileAtomic(filepath.Join(dir, "missing", "out.json"), []byte("x"), 0o644); err == nil {
		t.Error("write into missing directory succeeded")
	}
}

func TestNormalizeMsg(t *testing.T) {
	cases := [][2]string{
		{"index 17 out of bounds (len 4)", "index # out of bounds (len #)"},
		{"division by zero", "division by zero"},
		{"got 0x1f", "got #x#f"},
		{"", ""},
		{"123", "#"},
	}
	for _, c := range cases {
		if got := campaign.NormalizeMsg(c[0]); got != c[1] {
			t.Errorf("NormalizeMsg(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestSignatureStability(t *testing.T) {
	a := search.Bug{Kind: 1, Site: 3, Msg: "boom at 17", Input: []int64{1, 2}, Run: 5}
	b := search.Bug{Kind: 1, Site: 3, Msg: "boom at 99", Input: []int64{9, 9}, Run: 80}
	if campaign.SignatureFor("lexer", a) != campaign.SignatureFor("lexer", b) {
		t.Error("signatures differ for same failure class with different concrete values")
	}
	if campaign.SignatureFor("lexer", a) == campaign.SignatureFor("foo", a) {
		t.Error("signatures collide across workloads")
	}
	c := a
	c.Site = 4
	if campaign.SignatureFor("lexer", a) == campaign.SignatureFor("lexer", c) {
		t.Error("signatures collide across error sites")
	}
}

func TestScheduleOrder(t *testing.T) {
	es := []*campaign.Entry{
		{Hash: "d", Rung: "seed", Gained: 9},
		{Hash: "c", Rung: "concretize", Gained: 1},
		{Hash: "b", Rung: "proof", Gained: 1, Run: 7},
		{Hash: "a", Rung: "proof", Gained: 1, Run: 2},
		{Hash: "e", Rung: "qf", Gained: 5, Bug: true},
		{Hash: "f", Rung: "proof", Gained: 3},
	}
	got := campaign.Schedule(es)
	var order []string
	for _, e := range got {
		order = append(order, e.Hash)
	}
	// bug first; then proof rung by gained desc then run asc; then qf-less
	// rungs; seeds last.
	want := []string{"e", "f", "a", "b", "c", "d"}
	if strings.Join(order, "") != strings.Join(want, "") {
		t.Errorf("Schedule order = %v, want %v", order, want)
	}
	// Determinism: scheduling again (input already sorted differently) gives
	// the same order.
	again := campaign.Schedule(got)
	for i := range again {
		if again[i].Hash != got[i].Hash {
			t.Fatalf("Schedule not stable at %d", i)
		}
	}
}

// runSession executes one campaign session over a workload and commits it.
func runSession(t *testing.T, dir string, w *lexapp.Workload, seeds [][]int64, maxRuns int) (*campaign.Campaign, *search.Stats) {
	t.Helper()
	c, err := campaign.Open(dir, w.Name, "higher-order", nil)
	if err != nil {
		t.Fatal(err)
	}
	if seeds == nil {
		seeds = w.Seeds
	}
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	st := search.Run(eng, search.Options{
		MaxRuns: maxRuns, Seeds: seeds, Bounds: w.Bounds, Workers: 1,
		OnRun: c.RecordRun,
	})
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	return c, st
}

// TestCampaignTriageDedupAcrossSessions is the triage acceptance test:
// re-running a campaign over its saved corpus reports each previously found
// bug exactly once per bucket — the second session creates zero new buckets
// and leaves the bucket set unchanged.
func TestCampaignTriageDedupAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	w, _ := lexapp.Get("lexer")

	c1, st1 := runSession(t, dir, w, nil, 120)
	if len(st1.Bugs) == 0 {
		t.Fatal("first session found no bugs; the dedup test needs some")
	}
	if c1.NewBuckets() == 0 {
		t.Fatal("first session reported no new buckets despite finding bugs")
	}
	buckets1 := c1.Buckets()

	// Session 2 seeds from the saved corpus (scheduler-ranked) and re-runs.
	c2, err := campaign.Open(dir, w.Name, "higher-order", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Session != 2 {
		t.Fatalf("second session index = %d, want 2", c2.Session)
	}
	seeds := c2.SeedInputs()
	if len(seeds) == 0 {
		t.Fatal("saved corpus yielded no seeds")
	}
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	st2 := search.Run(eng, search.Options{
		MaxRuns: 120, Seeds: seeds, Bounds: w.Bounds, Workers: 1,
		OnRun: c2.RecordRun,
	})
	if len(st2.Bugs) == 0 {
		t.Fatal("corpus-seeded session rediscovered no bugs")
	}
	if c2.NewBuckets() != 0 {
		t.Errorf("corpus-seeded re-run created %d new buckets, want 0", c2.NewBuckets())
	}
	buckets2 := c2.Buckets()
	if len(buckets2) != len(buckets1) {
		t.Fatalf("bucket count changed across sessions: %d -> %d", len(buckets1), len(buckets2))
	}
	for i := range buckets1 {
		if buckets1[i].Signature != buckets2[i].Signature {
			t.Errorf("bucket %d signature changed: %q -> %q", i, buckets1[i].Signature, buckets2[i].Signature)
		}
		if buckets2[i].Session != 1 {
			t.Errorf("bucket %q first-session = %d, want 1", buckets2[i].Signature, buckets2[i].Session)
		}
	}
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignCorpusDedup: committing the same session twice, or re-running
// identical inputs, does not duplicate corpus entries.
func TestCampaignCorpusDedup(t *testing.T) {
	dir := t.TempDir()
	w, _ := lexapp.Get("foo")
	c1, _ := runSession(t, dir, w, nil, 40)
	n1 := len(c1.Entries())
	if n1 == 0 {
		t.Fatal("no corpus entries recorded")
	}
	// Re-open and replay the exact same search: content addressing must
	// collapse every input onto the existing entries.
	c2, _ := runSession(t, dir, w, nil, 40)
	if n2 := len(c2.Entries()); n2 != n1 {
		t.Errorf("corpus grew on identical re-run: %d -> %d", n1, n2)
	}
	files, err := os.ReadDir(filepath.Join(dir, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != n1 {
		t.Errorf("%d entry files for %d entries", len(files), n1)
	}
}

func TestCampaignRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	w, _ := lexapp.Get("foo")
	runSession(t, dir, w, nil, 20)
	if _, err := campaign.Open(dir, "lexer", "higher-order", nil); err == nil {
		t.Error("workload mismatch accepted")
	}
	if _, err := campaign.Open(dir, w.Name, "sound", nil); err == nil {
		t.Error("mode mismatch accepted")
	}
}

func TestCampaignDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _ := lexapp.Get("foo")
	c, _ := runSession(t, dir, w, nil, 20)
	entries := c.Entries()
	if len(entries) == 0 {
		t.Fatal("no entries")
	}

	// Flip a byte in one committed entry file: reopening must fail the
	// integrity check.
	path := filepath.Join(dir, "inputs", entries[0].Hash+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0x40
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Open(dir, w.Name, "higher-order", nil); err == nil {
		t.Error("corrupted corpus entry accepted")
	} else if !strings.Contains(err.Error(), "integrity") && !strings.Contains(err.Error(), "invalid") {
		t.Logf("corruption surfaced as: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A manifest from a future format version is rejected.
	mpath := filepath.Join(dir, "manifest.json")
	mdata, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	m["format_version"] = campaign.ManifestFormatVersion + 1
	newer, _ := json.Marshal(m)
	if err := os.WriteFile(mpath, newer, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Open(dir, w.Name, "higher-order", nil); err == nil {
		t.Error("future manifest version accepted")
	}
	if err := os.WriteFile(mpath, mdata, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Open(dir, w.Name, "higher-order", nil); err != nil {
		t.Errorf("restored campaign rejected: %v", err)
	}
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _ := lexapp.Get("foo")
	c, err := campaign.Open(dir, w.Name, "higher-order", nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := c.LatestCheckpoint(); err != nil || snap != nil {
		t.Fatalf("empty campaign LatestCheckpoint = (%v, %v), want (nil, nil)", snap, err)
	}

	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	search.Run(eng, search.Options{
		MaxRuns: 40, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1,
		Checkpoint: search.CheckpointOptions{Every: 2, Sink: c.SaveCheckpoint},
	})
	snap, err := c.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint saved")
	}
	if err := snap.Validate(concolic.New(w.Build(), concolic.ModeHigherOrder)); err != nil {
		t.Errorf("loaded checkpoint fails validation: %v", err)
	}

	// Corrupt the checkpoint payload: the integrity hash must catch it.
	var ptr struct {
		File string `json:"file"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoints", "latest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &ptr); err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(dir, "checkpoints", ptr.File)
	data, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	// "mode" occurs only inside the hashed snapshot payload (the envelope's
	// own fields are not covered by the integrity hash).
	munged := []byte(strings.Replace(string(data), `"mode"`, `"m0de"`, 1))
	if err := os.WriteFile(cpath, munged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LatestCheckpoint(); err == nil || !strings.Contains(err.Error(), "integrity hash mismatch") {
		t.Errorf("checkpoint with one flipped payload byte: LatestCheckpoint = %v, want an integrity hash mismatch", err)
	}
}

// TestCampaignKillAndResume runs a campaign that is killed (context
// cancellation, as close to kill -9 as a test can get while staying in
// process) after its third checkpoint, then resumed from the campaign
// directory. The resumed session's final state must be bit-identical to an
// uninterrupted run, and the bug-bucket set must match exactly.
func TestCampaignKillAndResume(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	opts := search.Options{MaxRuns: 120, Seeds: w.Seeds, Bounds: w.Bounds}

	// Uninterrupted reference.
	ref := search.Run(concolic.New(w.Build(), concolic.ModeHigherOrder), func() search.Options {
		o := opts
		o.Workers = 1
		return o
	}())
	refCanon, err := ref.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	refCampaign := t.TempDir()
	cRef, err := campaign.Open(refCampaign, w.Name, "higher-order", nil)
	if err != nil {
		t.Fatal(err)
	}
	refRun := search.Run(concolic.New(w.Build(), concolic.ModeHigherOrder), func() search.Options {
		o := opts
		o.Workers = 1
		o.OnRun = cRef.RecordRun
		return o
	}())
	refBuckets := cRef.Buckets()
	if len(refBuckets) == 0 || len(refRun.Bugs) == 0 {
		t.Fatal("reference campaign found no bugs")
	}

	// Interrupted session: cancel as soon as the third checkpoint is on disk.
	dir := t.TempDir()
	c1, err := campaign.Open(dir, w.Name, "higher-order", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saved := 0
	o1 := opts
	o1.Workers = 4
	o1.Ctx = ctx
	o1.OnRun = c1.RecordRun
	o1.Checkpoint = search.CheckpointOptions{Every: 10, Sink: func(s *search.Snapshot) error {
		if err := c1.SaveCheckpoint(s); err != nil {
			return err
		}
		if saved++; saved == 3 {
			cancel()
		}
		return nil
	}}
	st1 := search.Run(concolic.New(w.Build(), concolic.ModeHigherOrder), o1)
	if !st1.Budget.Cancelled {
		t.Fatal("interrupted session was not cancelled (raise MaxRuns?)")
	}
	if st1.Runs >= 120 {
		t.Fatal("session completed before cancellation; nothing was interrupted")
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}

	// Resume in a "new process": fresh campaign handle, fresh engine.
	c2, err := campaign.Open(dir, w.Name, "higher-order", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c2.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint to resume from")
	}
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	if err := snap.Validate(eng); err != nil {
		t.Fatal(err)
	}
	o2 := opts
	o2.Workers = 1
	o2.Restore = snap
	o2.OnRun = c2.RecordRun
	o2.Checkpoint = search.CheckpointOptions{Every: 10, Sink: c2.SaveCheckpoint}
	st2 := search.Run(eng, o2)
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}

	gotCanon, err := st2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCanon) != string(refCanon) {
		t.Errorf("resumed campaign diverged from uninterrupted run:\nuninterrupted: %s\nresumed:       %s", refCanon, gotCanon)
	}

	// Bug set: same buckets as the uninterrupted campaign, and the session-2
	// view reports no bucket the interrupted session had not already seen
	// (the overlap window between checkpoint 3 and the kill re-finds bugs,
	// which must deduplicate).
	gotBuckets := c2.Buckets()
	if len(gotBuckets) != len(refBuckets) {
		t.Fatalf("bucket count: interrupted+resumed %d, uninterrupted %d", len(gotBuckets), len(refBuckets))
	}
	for i := range refBuckets {
		if gotBuckets[i].Signature != refBuckets[i].Signature {
			t.Errorf("bucket %d: %q != %q", i, gotBuckets[i].Signature, refBuckets[i].Signature)
		}
	}
}
