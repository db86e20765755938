package search_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/faults"
	"hotg/internal/lexapp"
	"hotg/internal/search"
)

// TestCanonicalDigestsPinned pins the SHA-256 of Stats.Canonical for a
// spread of searches, at one worker and at four, and for those with a
// checkpoint cadence also after a kill at the middle checkpoint and a resume
// at two workers. The digests were taken before the proof cache stopped
// keying sample-independent verdicts on the sample store's version; what the
// cache keeps may change how often the prover runs, never the trajectory, so
// every digest must stay put. A change that moves one on purpose re-pins it
// and says why.
func TestCanonicalDigestsPinned(t *testing.T) {
	cases := []struct {
		name string
		w    *lexapp.Workload
		mode concolic.Mode
		opts search.Options
		// every is the checkpoint cadence of the resume leg; 0 skips it.
		every int
		want  string
	}{
		{"lexer-ho", lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 300}, 50, "926c2c01068b0762497771af28bf2d2441682739235dd50ece94414a663fe517"},
		{"lexer-dart", lexapp.Lexer(), concolic.ModeUnsound, search.Options{MaxRuns: 300}, 0, "ff6cbaf19a49b7aa43c278c907377530dedf82c44669805569a9ce84579389de"},
		{"scanner", lexapp.Scanner(), concolic.ModeHigherOrder, search.Options{MaxRuns: 120}, 0, "f2d15ad2c362a3c65fbb850bb608616db03a2d800872a2e78859308b93f0e17e"},
		{"cb-fold", lexapp.CallbackFold(), concolic.ModeHigherOrder, search.Options{MaxRuns: 60}, 0, "408ada3e80c21c9abe2d619b42fbcfd3bf4588c39a5cd679b66e367c3ae78676"},
		{"foo", lexapp.Foo(), concolic.ModeHigherOrder, search.Options{MaxRuns: 30}, 0, "be671eec0282ac73a3d55c744b2e5859ab31c848b785c7592583dd5fdee46cf2"},
		{"tokenparser-refute", lexapp.TokenParser(), concolic.ModeHigherOrder, search.Options{MaxRuns: 60, Refute: true}, 0, "3d9e28840a82cdf90fe25fdb033e390f91c291ae70c7a04054d8939ee992907a"},
		{"scanner-refute", lexapp.Scanner(), concolic.ModeHigherOrder, search.Options{MaxRuns: 60, Refute: true}, 10, "392d36f1246b6b9796596e0bf11da714d1cd17227be7eb05dc14c7bd239d81cb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				b, err := runWorkers(tc.w, tc.mode, tc.opts, workers, false).Canonical()
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
					t.Errorf("workers=%d: canonical digest %s, want %s", workers, got, tc.want)
				}
			}
			if tc.every == 0 {
				return
			}
			_, _, snaps := checkpointedRun(t, tc.w, tc.mode, tc.opts, 2, tc.every)
			if len(snaps) < 2 {
				t.Fatalf("want at least 2 checkpoints, got %d", len(snaps))
			}
			_, st := resumeRun(t, tc.w, tc.mode, tc.opts, 2, snaps[len(snaps)/2])
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(mustCanonical(t, st)))); got != tc.want {
				t.Errorf("resumed at workers=2: canonical digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestCanonicalStreamsPinned pins the SHA-256 of the canonical trace event
// stream, at one worker and at four, for searches that between them reach
// every discharge path: validity proofs with the proof cache (lexer-ho),
// satisfiability checks (lexer under sound concretization), callback
// synthesis (cb-fold), a callback proof with parent-answered probes
// (cb-sortguard), and the degradation ladder under injected proof timeouts.
// TestCanonicalDigestsPinned pins the trajectory's Stats; this pins the order
// and the attributes of the cache, prove, solve, degrade and callback events
// on top of it. A change that moves one on purpose re-pins it and says why.
func TestCanonicalStreamsPinned(t *testing.T) {
	cases := []struct {
		name   string
		w      *lexapp.Workload
		mode   concolic.Mode
		opts   search.Options
		faults *faults.Plan
		want   string
	}{
		{"lexer-ho", lexapp.Lexer(), concolic.ModeHigherOrder, search.Options{MaxRuns: 120}, nil, "35ef40215befb2282a2f4c621e2e0ebd44456e0e7d018b68b57688b5ee4edd65"},
		{"lexer-sound", lexapp.Lexer(), concolic.ModeSound, search.Options{MaxRuns: 60}, nil, "ae45f93b4df5ee22df7e88462bf1ad0db87be74f0c294a12ad2304674fc2dcf2"},
		{"cb-fold", lexapp.CallbackFold(), concolic.ModeHigherOrder, search.Options{MaxRuns: 60}, nil, "5063689661480b7d58eb19e4ef7f04175f90b2af61ee321bc8eccd919165940c"},
		{"cb-sortguard", lexapp.CallbackSortGuard(), concolic.ModeHigherOrder, search.Options{MaxRuns: 60}, nil, "468a94991a83377c0669f2f557f772c1e5f3604ff13e3cb27764f7061cb0fde7"},
		{"lexer-degrade", lexapp.Lexer(), concolic.ModeHigherOrder,
			search.Options{MaxRuns: 80, Budget: search.Budget{Degrade: true}}, &faults.Plan{ProveTimeout: true}, "19bd20c2eda6b9b59d5c1619639d389f2bf5ed26281fffe9a35a1e4fb29df686"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.faults != nil {
				defer faults.Set(tc.faults)()
			}
			for _, workers := range []int{1, 4} {
				o, _ := tracedRun(tc.w, tc.mode, tc.opts, workers)
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(o.Trace.CanonicalStream()))); got != tc.want {
					t.Errorf("workers=%d: canonical stream digest %s, want %s", workers, got, tc.want)
				}
			}
		})
	}
}
