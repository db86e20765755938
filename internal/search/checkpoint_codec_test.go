package search

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
)

// TestTraceRoundTripProperty: random traces survive encode/decode exactly,
// including branch IDs that need two or more varint bytes, and re-encode to
// the same text.
func TestTraceRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	multiByte := 0
	for n := 0; n < 500; n++ {
		tr := make(trace, rng.Intn(300))
		for i := range tr {
			var id int
			switch rng.Intn(4) {
			case 0:
				id = rng.Intn(64) // ID<<1 < 128: one byte
			case 1:
				id = 64 + rng.Intn(1<<13) // ID<<1 ≥ 128: two varint bytes
			case 2:
				id = rng.Intn(math.MaxInt32)
			default:
				id = math.MaxInt - rng.Intn(2) // the widest IDs
			}
			if id >= 64 {
				multiByte++
			}
			tr[i] = mini.BranchEvent{ID: id, Taken: rng.Intn(2) == 1}
		}
		text, err := tr.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got trace
		if err := got.UnmarshalText(text); err != nil {
			t.Fatalf("trace %d: %v", n, err)
		}
		if len(got) != len(tr) {
			t.Fatalf("trace %d: %d events back, want %d", n, len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("trace %d event %d: got %+v, want %+v", n, i, got[i], tr[i])
			}
		}
		again, _ := got.MarshalText()
		if string(again) != string(text) {
			t.Fatalf("trace %d re-encodes differently", n)
		}
	}
	if multiByte == 0 {
		t.Fatal("no multi-byte IDs generated")
	}
}

// TestTraceNilStaysNil: an item with no expected trace (a seed) must come
// back without one — RunRecord.Seed reads expected.IsZero() — while a present
// trace never decodes to nil.
func TestTraceNilStaysNil(t *testing.T) {
	data, err := json.Marshal(itemRec{Input: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "expected") {
		t.Fatalf("nil trace serialized: %s", data)
	}
	var rec itemRec
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Expected != nil {
		t.Fatalf("absent trace decoded as %#v, want nil", rec.Expected)
	}
	if err := json.Unmarshal([]byte(`{"input":[1],"expected":"AA=="}`), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Expected == nil || len(rec.Expected) != 1 || concolic.Predict(rec.Expected).At(0) != (mini.BranchEvent{}) {
		t.Fatalf("one-event trace decoded as %#v", rec.Expected)
	}
}

func b64(raw ...byte) string { return base64.StdEncoding.EncodeToString(raw) }

// TestTraceDecodeStrict: malformed traces are errors, never dropped events.
func TestTraceDecodeStrict(t *testing.T) {
	cases := map[string]string{
		"bad base64":          "!!!!",
		"non-zero pad bits":   "AB==",
		"truncated varint":    b64(0x02, 0x80),
		"overflowing varint":  b64(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"non-minimal varint":  b64(0x81, 0x00),
		"non-minimal trailer": b64(0x04, 0x80, 0x80, 0x00),
	}
	for name, text := range cases {
		var tr trace
		if err := tr.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("%s: %q decoded to %v", name, text, tr)
		}
	}
}

// TestKeySetRoundTrip: dedup sets with long shared prefixes round-trip and
// re-encode byte-identically; malformed ones are errors.
func TestKeySetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var set dedupSet
	set.add("")
	for len(set.m) < 2000 {
		b := make([]byte, rng.Intn(200))
		for i := range b {
			b[i] = byte(rng.Intn(3)) // small alphabet: many shared prefixes
		}
		set.add(string(b))
	}
	ks := set.keys()
	text, err := ks.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var got keySet
	if err := got.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(got) || len(got) != len(ks) {
		t.Fatalf("decoded %d keys (sorted=%v), want %d", len(got), sort.StringsAreSorted(got), len(ks))
	}
	for i := range ks {
		if got[i] != ks[i] {
			t.Fatalf("key %d: got %q, want %q", i, got[i], ks[i])
		}
	}
	if again, _ := got.MarshalText(); string(again) != string(text) {
		t.Fatal("key set re-encodes differently")
	}

	bad := map[string]string{
		"out of order":     b64(0, 1, 'b', 0, 1, 'a'),
		"duplicate":        b64(0, 1, 'a', 1, 0),
		"shared overruns":  b64(0, 1, 'a', 2, 1, 'b'),
		"suffix overruns":  b64(0, 3, 'a'),
		"missing length":   b64(0),
		"non-minimal size": b64(0, 0x81, 0x00, 'a'),
	}
	for name, text := range bad {
		var ks keySet
		if err := ks.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("%s: %q decoded to %q", name, text, ks)
		}
	}
}

// format3Snapshot is a checkpoint of a higher-order lexer search (seeds and
// bounds of lexapp's "lexer", 60 runs, one worker) taken after run 4 by a
// build that still held every queued prediction as a copy. Holding them as
// views of the parent's trace must not change the bytes or their meaning.
const format3Snapshot = "testdata/lexer_ho_run4.json.gz"

// format3Canonical is the SHA-256 of Stats.Canonical of that search, run
// uninterrupted by the same build.
const format3Canonical = "ca02ed72f507b7a69562afb75f9cb271058ad1e3ce3425a5c6e34dff3c63c3a9"

// TestCheckpointFormat3Compat: the committed format-3 snapshot decodes,
// restores into a fresh engine, re-encodes byte for byte — its queued
// predictions included — and resumes to the canonical digest of the
// uninterrupted search.
func TestCheckpointFormat3Compat(t *testing.T) {
	f, err := os.Open(format3Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.TrimSpace(raw)
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.FormatVersion != 3 || len(snap.Hot) == 0 || len(snap.Cold) == 0 {
		t.Fatalf("snapshot: format %d, %d hot and %d cold items; want format 3 with both queues non-empty",
			snap.FormatVersion, len(snap.Hot), len(snap.Cold))
	}

	w, _ := lexapp.Get("lexer")
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	s := &searcher{eng: eng, opts: Options{MaxRuns: snap.MaxRuns}, stats: newStats(eng.Mode.String(), eng.Prog.NumBranches), cache: newProofCache()}
	if err := s.restoreSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	again, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		i := 0
		for i < len(got) && i < len(raw) && got[i] == raw[i] {
			i++
		}
		t.Fatalf("restored snapshot re-encodes differently from byte %d:\ncommitted:  %.200s\nre-encoded: %.200s", i, raw[i:], got[i:])
	}

	opts := Options{MaxRuns: snap.MaxRuns, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1}
	whole, err := Run(concolic.New(w.Build(), concolic.ModeHigherOrder), opts).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	opts.Restore = &snap
	resumed, err := Run(concolic.New(w.Build(), concolic.ModeHigherOrder), opts).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, whole) {
		t.Errorf("resumed search diverged:\nuninterrupted: %.300s\nresumed:       %.300s", whole, resumed)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(whole)); sum != format3Canonical {
		t.Errorf("uninterrupted search has canonical digest %s, want %s", sum, format3Canonical)
	}
}

// TestProveKeyParse: both kinds of prove cache key parse back to the key
// that wrote them, and a malformed key is an error that names it.
func TestProveKeyParse(t *testing.T) {
	for _, k := range []proveKey{
		{formula: "(x0 = 0)", version: 0},
		{formula: "(x0 = 0)", version: 41},
		{formula: "(and (x0 <= 0) (h(x1) = 3))", version: anyVersion},
		{formula: "a|b", version: 7},
	} {
		got, err := parseProveKey(k.String())
		if err != nil || got != k {
			t.Errorf("parseProveKey(%q) = %+v, %v; want %+v", k.String(), got, err, k)
		}
	}
	for _, bad := range []string{"", "(x0 = 0)", "|f", "*|", "3|", "x|f", "-1|f", "01|f", "+1|f", "**|f"} {
		if k, err := parseProveKey(bad); err == nil {
			t.Errorf("parseProveKey(%q) = %+v, want an error", bad, k)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("parseProveKey(%q) error %q does not name the key", bad, err)
		}
	}
}

// TestProveCacheKeysRoundTrip: a lexer snapshot holds prove cache entries of
// both kinds, version-keyed ("v|formula") and version-free ("*|formula");
// restoring it rebuilds the same keys, and the restored searcher snapshots to
// the same bytes. A snapshot with a malformed key is rejected, naming it, and
// so is one that repeats a record.
func TestProveCacheKeysRoundTrip(t *testing.T) {
	w, _ := lexapp.Get("lexer")
	var last *Snapshot
	Run(concolic.New(w.Build(), concolic.ModeHigherOrder), Options{
		MaxRuns: 60, Seeds: w.Seeds, Bounds: w.Bounds, Workers: 1,
		Checkpoint: CheckpointOptions{Every: 30, Sink: func(s *Snapshot) error { last = s; return nil }},
	})
	if last == nil {
		t.Fatal("no checkpoint taken")
	}
	raw, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	kinds := map[bool]int{}
	for _, rec := range snap.Prove {
		kinds[strings.HasPrefix(rec.Key, "*|")]++
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("snapshot holds %d version-free and %d version-keyed prove entries; want both kinds", kinds[true], kinds[false])
	}

	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	s := &searcher{eng: eng, opts: Options{MaxRuns: snap.MaxRuns}, stats: newStats(eng.Mode.String(), eng.Prog.NumBranches), cache: newProofCache()}
	if err := s.restoreSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if len(s.cache.prove) != len(snap.Prove) {
		t.Fatalf("restored %d prove entries from %d records", len(s.cache.prove), len(snap.Prove))
	}
	for _, rec := range snap.Prove {
		k, err := parseProveKey(rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.cache.prove[k]; !ok {
			t.Errorf("record %q restored under another key", rec.Key)
		}
	}
	again, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Error("restored snapshot re-encodes differently")
	}

	bad := snap
	bad.Prove = append([]proveRec(nil), snap.Prove...)
	bad.Prove[0].Key = "v1|" + bad.Prove[0].Key
	err = bad.Validate(concolic.New(w.Build(), concolic.ModeHigherOrder))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad.Prove[0].Key)) {
		t.Errorf("snapshot with malformed key %q: Validate error %v, want one naming the key", bad.Prove[0].Key, err)
	}

	// A record repeated is an error too: the cache never holds two entries
	// under one key, and restoring one would silently drop the other.
	dup := snap
	dup.Prove = append(append([]proveRec(nil), snap.Prove[0]), snap.Prove...)
	err = dup.Validate(concolic.New(w.Build(), concolic.ModeHigherOrder))
	if err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Errorf("snapshot with a repeated prove record: Validate error %v, want one saying it appears twice", err)
	}
}

// reflectedSnapshot has Snapshot's fields and none of its methods, so
// encoding/json encodes it by reflection.
type reflectedSnapshot Snapshot

// TestSnapshotEncoderMatchesReflection: at every checkpoint of a spread of
// searches, AppendJSON (and json.Marshal through MarshalJSON) writes exactly
// the bytes encoding/json's reflection writes for the same snapshot. The
// searches between them hold pending continuations (packet with Refute:
// the lexer's and scanner's continuations never outlive a checkpoint),
// function inputs (cb-fold) and a solve cache (dart-unsound), and the
// resumed session's first checkpoint is encoded with an empty memo; that
// checkpoint must also equal the uninterrupted session's at the same run.
// The bytes cover branch_cov's map-key order ("10" before "2") and
// HTML-escaped formula keys ("<=" as "\u003c=").
func TestSnapshotEncoderMatchesReflection(t *testing.T) {
	type seen struct{ pending, funcs, solve, keyOrder, escaped bool }
	check := func(t *testing.T, snap *Snapshot, saw *seen) []byte {
		t.Helper()
		got, err := snap.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal((*reflectedSnapshot)(snap))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("run %d: AppendJSON differs from reflection at byte %d:\nreflection: %.200s\nAppendJSON: %.200s", snap.Runs, i, want[i:], got[i:])
		}
		if viaMarshal, err := json.Marshal(snap); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("run %d: json.Marshal differs from reflection (err %v)", snap.Runs, err)
		}
		for _, it := range append(append([]itemRec(nil), snap.Hot...), snap.Cold...) {
			saw.pending = saw.pending || it.Pending != nil
			saw.funcs = saw.funcs || it.Funcs != nil
		}
		saw.solve = saw.solve || len(snap.Solve) > 0
		if cov := want[bytes.Index(want, []byte(`"branch_cov":{`)):]; bytes.Contains(cov, []byte(`"10":`)) {
			saw.keyOrder = true
			if bytes.Index(cov, []byte(`"10":`)) > bytes.Index(cov, []byte(`"2":`)) {
				t.Fatalf("run %d: branch_cov key \"10\" follows \"2\"", snap.Runs)
			}
		}
		saw.escaped = saw.escaped || bytes.Contains(want, []byte(`\u003c=`))
		if bytes.Contains(want, []byte("<=")) {
			t.Fatalf("run %d: unescaped \"<=\" in snapshot bytes", snap.Runs)
		}
		return got
	}
	cases := []struct {
		name  string
		w     *lexapp.Workload
		mode  concolic.Mode
		opts  Options
		every int
		need  func(seen) bool
	}{
		{"lexer-ho", lexapp.Lexer(), concolic.ModeHigherOrder, Options{MaxRuns: 300}, 30,
			func(s seen) bool { return s.keyOrder && s.escaped }},
		{"packet-refute", lexapp.Packet(), concolic.ModeHigherOrder, Options{MaxRuns: 60, Refute: true}, 2,
			func(s seen) bool { return s.pending }},
		{"cb-fold", lexapp.CallbackFold(), concolic.ModeHigherOrder, Options{MaxRuns: 60}, 1,
			func(s seen) bool { return s.funcs }},
		{"lexer-dart", lexapp.Lexer(), concolic.ModeUnsound, Options{MaxRuns: 120}, 30,
			func(s seen) bool { return s.solve }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var saw seen
			var whole [][]byte
			var snaps []*Snapshot
			opts := tc.opts
			opts.Seeds, opts.Bounds, opts.Workers = tc.w.Seeds, tc.w.Bounds, 1
			opts.Checkpoint = CheckpointOptions{Every: tc.every, Sink: func(s *Snapshot) error {
				whole = append(whole, check(t, s, &saw))
				snaps = append(snaps, s)
				return nil
			}}
			Run(concolic.New(tc.w.Build(), tc.mode), opts)
			if len(snaps) < 2 {
				t.Fatalf("%d checkpoints, want at least 2", len(snaps))
			}
			if !tc.need(saw) {
				t.Fatalf("the snapshots do not hold what this case covers: %+v", saw)
			}

			// Resume from the middle checkpoint, decoded from its bytes.
			mid := (len(snaps) - 1) / 2
			var decoded Snapshot
			if err := json.Unmarshal(whole[mid], &decoded); err != nil {
				t.Fatal(err)
			}
			var resumed [][]byte
			opts.Restore = &decoded
			opts.Checkpoint.Sink = func(s *Snapshot) error {
				resumed = append(resumed, check(t, s, &saw))
				return nil
			}
			Run(concolic.New(tc.w.Build(), tc.mode), opts)
			if len(resumed) == 0 {
				t.Fatal("the resumed session took no checkpoint")
			}
			if !bytes.Equal(resumed[0], whole[mid+1]) {
				t.Errorf("the resumed session's first checkpoint differs from the uninterrupted session's at run %d", snaps[mid+1].Runs)
			}
		})
	}
}

// TestKeySetIncrementalFrontCoding: a dedup set that merges new keys in
// between snapshots writes the bytes a set sorted and front-coded from
// scratch writes, at every snapshot, and leaves an earlier snapshot's keys
// and prefix lengths as they were.
func TestKeySetIncrementalFrontCoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var set dedupSet
	type taken struct {
		keys   keySet
		shared []int
		text   string
	}
	var snaps []taken
	for round := 0; round < 40; round++ {
		for i := rng.Intn(60); i > 0; i-- {
			b := make([]byte, rng.Intn(40))
			for j := range b {
				b[j] = byte(rng.Intn(3))
			}
			set.add(string(b))
		}
		ks, shared := set.frontCoded()
		want, _ := ks.MarshalText()
		if got := ks.appendText(nil, shared); string(got) != string(want) {
			t.Fatalf("round %d: incremental front coding differs from a fresh one", round)
		}
		snaps = append(snaps, taken{ks, shared, string(want)})
	}
	for i, sn := range snaps {
		if got := sn.keys.appendText(nil, sn.shared); string(got) != sn.text {
			t.Fatalf("snapshot %d changed after later merges", i)
		}
	}
}
