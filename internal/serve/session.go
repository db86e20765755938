package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hotg/internal/campaign"
	"hotg/internal/obs"
)

// Session states. The lifecycle is a straight line with three exits:
//
//	queued → running → done | failed | cancelled | interrupted
//	(done | failed | cancelled) → evicted        [memory budget]
//	interrupted → queued                          [server restart]
//
// done/failed/cancelled/evicted are terminal for this server process;
// interrupted is the drain state — the session's last periodic checkpoint is
// on disk and a restarted server re-queues it for a bit-identical resume.
// See DESIGN.md §14.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted"
	StateEvicted     = "evicted"
)

// terminalState reports whether a state will never change again on this
// server (interrupted sessions resume after a restart, so it is not
// terminal).
func terminalState(st string) bool {
	switch st {
	case StateDone, StateFailed, StateCancelled, StateEvicted:
		return true
	}
	return false
}

// Spec is one campaign submission: what to test, under which mode, and with
// how much budget. Exactly one of Workload (a registered lexapp program) or
// Source (inline mini source compiled with the default natives) must be set.
type Spec struct {
	// Workload names a registered program under test (e.g. "lexer", "foo").
	Workload string `json:"workload,omitempty"`
	// Source is inline mini source, compiled against the default natives
	// ("hash", "hashstr"). Mutually exclusive with Workload.
	Source string `json:"source,omitempty"`
	// Mode is the execution mode ("higher-order" by default; also "static",
	// "dart-unsound", "dart-sound", "dart-sound-delayed").
	Mode string `json:"mode,omitempty"`
	// MaxRuns is the execution budget (server default applies when 0).
	MaxRuns int `json:"max_runs,omitempty"`
	// Workers is the per-session worker count (server default when 0).
	// Results are bit-identical at any value; this is a wall-clock knob.
	Workers int `json:"workers,omitempty"`
	// CorpusID selects the on-disk corpus root. Submitting a new session
	// with the CorpusID of a finished or evicted one resumes that campaign:
	// the corpus, triage buckets, and latest checkpoint carry over. Defaults
	// to the session ID (a fresh corpus).
	CorpusID string `json:"corpus_id,omitempty"`
	// Seeds overrides the initial inputs (workload seeds by default; a zero
	// vector for inline sources).
	Seeds [][]int64 `json:"seeds,omitempty"`
	// BudgetMS caps the session's search wall clock, in milliseconds.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// ProofTimeoutMS caps each validity proof, in milliseconds.
	ProofTimeoutMS int64 `json:"proof_timeout_ms,omitempty"`
	// Degrade enables the precision-degradation ladder under tight budgets.
	Degrade bool `json:"degrade,omitempty"`
	// CheckpointEvery overrides the server's checkpoint cadence (runs).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// TestCase is one generated test in a session result.
type TestCase struct {
	Input []int64 `json:"input"`
	Rung  string  `json:"rung"`
	Run   int     `json:"run"`
	Bug   bool    `json:"bug,omitempty"`
}

// Result is the retained outcome of a finished session, served at
// /api/v1/campaigns/{id}/result and persisted as result.json in the
// session's corpus directory.
type Result struct {
	ID             string             `json:"id"`
	CorpusID       string             `json:"corpus_id"`
	State          string             `json:"state"`
	Error          string             `json:"error,omitempty"`
	Workload       string             `json:"workload"`
	Mode           string             `json:"mode"`
	Summary        string             `json:"summary"`
	Runs           int                `json:"runs"`
	TestsGenerated int                `json:"tests_generated"`
	Bugs           int                `json:"bugs"`
	Resumed        bool               `json:"resumed,omitempty"`
	CanonicalStats json.RawMessage    `json:"canonical_stats,omitempty"`
	Tests          []TestCase         `json:"tests,omitempty"`
	Buckets        []*campaign.Bucket `json:"buckets,omitempty"`
	FirstTestMS    int64              `json:"submit_to_first_test_ms"`
	DoneMS         int64              `json:"submit_to_done_ms"`
}

// Status is the live view of a session, served at /api/v1/campaigns/{id}.
type Status struct {
	ID        string `json:"id"`
	CorpusID  string `json:"corpus_id"`
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	Workload  string `json:"workload,omitempty"`
	Mode      string `json:"mode,omitempty"`
	Runs      int64  `json:"runs"`
	Tests     int64  `json:"tests"`
	Bugs      int64  `json:"bugs"`
	Remaining int64  `json:"runs_remaining"`
	Resumed   bool   `json:"resumed,omitempty"`
	// CheckpointRejected is why the corpus's latest checkpoint was not
	// resumed from (failed integrity check, format or program mismatch);
	// empty when there was none or it was used.
	CheckpointRejected string `json:"checkpoint_rejected,omitempty"`
	AgeMS              int64  `json:"age_ms"`
}

// Session is one isolated campaign inside the server: its own obs registry,
// tracer and flight recorder, its own corpus root (locked for the duration
// of the run), and its own cancellation context.
type Session struct {
	ID       string
	CorpusID string

	srv  *Server
	spec Spec

	mu        sync.Mutex
	state     string
	errMsg    string
	workload  string
	mode      string
	submitted time.Time
	resumed   bool
	// ckptRejected is Status.CheckpointRejected.
	ckptRejected string
	cancelReq    bool
	cancel       context.CancelFunc
	// o and rec are the per-session observability handles, nil before the
	// session starts and after eviction.
	o   *obs.Obs
	rec *obs.FlightRecorder
	// result is retained for terminal sessions until eviction; resultBytes
	// is its serialized size, charged against the server memory budget.
	result      *Result
	resultBytes int64
	firstTestMS int64 // -1 until the first generated test is applied
}

// State returns the session's current lifecycle state.
func (s *Session) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Status snapshots the live view. Progress numbers come from the session's
// own registry (the search publishes search.live.* gauges between batches).
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID: s.ID, CorpusID: s.CorpusID, State: s.state, Error: s.errMsg,
		Workload: s.workload, Mode: s.mode, Resumed: s.resumed,
		CheckpointRejected: s.ckptRejected,
		AgeMS:              time.Since(s.submitted).Milliseconds(),
	}
	if s.o != nil {
		reg := s.o.Metrics
		st.Runs = reg.Get("search.live.runs")
		st.Tests = reg.Get("search.live.tests")
		st.Bugs = reg.Get("search.live.bugs")
		st.Remaining = reg.Get("search.live.runs_remaining")
	} else if s.result != nil {
		st.Runs = int64(s.result.Runs)
		st.Tests = int64(s.result.TestsGenerated)
		st.Bugs = int64(s.result.Bugs)
	}
	return st
}

// Headline renders the per-session /statusz row.
func (s *Session) headline() map[string]int64 {
	st := s.Status()
	return map[string]int64{
		"runs": st.Runs, "tests": st.Tests, "bugs": st.Bugs,
		"runs_remaining": st.Remaining, "age_ms": st.AgeMS,
	}
}

// recorder returns the session's flight recorder, or nil if the session has
// not started or was evicted.
func (s *Session) recorder() *obs.FlightRecorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// requestCancel cancels a running session's context (idempotent). The caller
// transitions queued sessions directly.
func (s *Session) requestCancel() {
	s.mu.Lock()
	s.cancelReq = true
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// persistRec is the sessions.json row for one session — enough to rebuild
// the index and resume non-terminal sessions after a restart.
type persistRec struct {
	ID       string `json:"id"`
	CorpusID string `json:"corpus_id"`
	Spec     Spec   `json:"spec"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Resumed  bool   `json:"resumed,omitempty"`
}

func (s *Session) persistRec() persistRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return persistRec{
		ID: s.ID, CorpusID: s.CorpusID, Spec: s.spec,
		State: s.state, Error: s.errMsg, Resumed: s.resumed,
	}
}

func (s *Session) String() string {
	return fmt.Sprintf("session %s (%s, corpus %s)", s.ID, s.State(), s.CorpusID)
}
