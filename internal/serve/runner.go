package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/obs"
	"hotg/internal/search"
)

// holdRunning, when set, is called by every session once it is running,
// holds its corpus lock and can be cancelled; the session stays in
// StateRunning until the hook returns. Only tests set it (export_test.go),
// to pin a session as live without racing its search.
var holdRunning func(ctx context.Context)

// runSession executes one admitted session end to end: compile the spec,
// build the per-session observability stack, run the search as one campaign
// session (lock, resume or seed, commit), and finalize. It owns the
// session's slot; releasing it re-pumps the queue.
func (s *Server) runSession(ses *Session) {
	defer s.wg.Done()
	st, camp, err := s.execute(ses)
	s.finalize(ses, st, camp, err)
	s.mu.Lock()
	s.running--
	s.pumpLocked()
	s.publishGauges()
	s.persistLocked()
	s.mu.Unlock()
}

// execute runs the search for one session. It returns the (possibly
// partial) stats, the campaign and the first error; all may be non-nil — a
// commit failure after a successful search still has stats worth keeping.
func (s *Server) execute(ses *Session) (st *search.Stats, camp *campaign.Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: session panicked: %v", r)
		}
	}()

	r, err := resolveSpec(ses.spec)
	if err != nil {
		return nil, nil, err
	}
	ses.mu.Lock()
	ses.workload, ses.mode = r.name, r.mode.String()
	ses.mu.Unlock()

	// Per-session observability: an isolated registry, a recorder-only
	// tracer (no writer — events live in the session's ring, created when
	// it started running and streamed by /events).
	ses.mu.Lock()
	rec := ses.rec
	ses.mu.Unlock()
	tracer := obs.NewTracer(nil).WithRecorder(rec)
	defer tracer.Close()
	o := obs.New()
	o.Trace = tracer

	ctx, cancel := context.WithCancel(s.baseCtx)
	if s.opts.SessionTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, s.opts.SessionTimeout)
	}
	defer cancel()
	ses.mu.Lock()
	ses.o, ses.cancel = o, cancel
	ses.mu.Unlock()

	eng := concolic.New(r.prog, r.mode)
	if eng.Summaries != nil {
		eng.Summaries.MaxCases = s.opts.SummaryCap
	}

	maxRuns := ses.spec.MaxRuns
	if maxRuns <= 0 {
		maxRuns = s.opts.DefaultMaxRuns
	}
	workers := ses.spec.Workers
	if workers <= 0 {
		workers = s.opts.DefaultWorkers
	}
	every := ses.spec.CheckpointEvery
	if every <= 0 {
		every = s.opts.CheckpointEvery
	}
	seeds := r.seeds
	if len(seeds) == 0 {
		seeds = [][]int64{make([]int64, len(eng.InputVars))}
	}

	opts := search.Options{
		MaxRuns:  maxRuns,
		Seeds:    seeds,
		Workers:  workers,
		Bounds:   r.bounds,
		Obs:      o,
		Ctx:      ctx,
		CacheCap: s.opts.CacheCap,
		Budget: search.Budget{
			SearchTimeout: time.Duration(ses.spec.BudgetMS) * time.Millisecond,
			ProofTimeout:  time.Duration(ses.spec.ProofTimeoutMS) * time.Millisecond,
			Degrade:       ses.spec.Degrade,
		},
		Checkpoint: search.CheckpointOptions{Every: every},
		// Submit-to-first-test latency: stamp the first non-seed,
		// non-intermediate applied run.
		OnRun: func(rr search.RunRecord) {
			if !rr.Seed && !rr.Intermediate {
				ses.mu.Lock()
				if ses.firstTestMS < 0 {
					ses.firstTestMS = time.Since(ses.submitted).Milliseconds()
				}
				ses.mu.Unlock()
			}
		},
	}
	camp, err = campaign.Start(s.corpusDir(ses.CorpusID), r.name, eng, &opts)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if ferr := camp.Finish(st); ferr != nil && err == nil {
			err = fmt.Errorf("serve: corpus commit: %w", ferr)
		}
	}()
	ses.mu.Lock()
	ses.resumed = ses.resumed || opts.Restore != nil || camp.Seeded
	if camp.Rejected != nil {
		ses.ckptRejected = camp.Rejected.Error()
	}
	ses.mu.Unlock()
	if holdRunning != nil {
		holdRunning(ctx)
	}

	return search.Run(eng, opts), camp, nil
}

// finalize transitions a session out of running: map the outcome to a
// terminal (or interrupted) state, build and persist the result, record
// latencies, and charge the retained bytes against the memory budget.
func (s *Server) finalize(ses *Session, st *search.Stats, camp *campaign.Session, err error) {
	ses.mu.Lock()
	cancelReq := ses.cancelReq
	firstTest := ses.firstTestMS
	doneMS := time.Since(ses.submitted).Milliseconds()
	resumed := ses.resumed
	ses.cancel = nil
	ses.mu.Unlock()

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()

	state := StateDone
	errMsg := ""
	switch {
	case err != nil:
		state, errMsg = StateFailed, err.Error()
	case st != nil && st.Budget.Cancelled && cancelReq:
		state = StateCancelled
	case st != nil && st.Budget.Cancelled && draining:
		// Drain, not a user cancel: the last periodic checkpoint is on
		// disk and the restarted server resumes this session.
		state = StateInterrupted
	case st != nil && st.Budget.Cancelled:
		// Base-context cancellation without drain (e.g. tests closing the
		// server) — treat like a drain.
		state = StateInterrupted
	}

	res := &Result{
		ID: ses.ID, CorpusID: ses.CorpusID, State: state, Error: errMsg,
		Resumed: resumed, FirstTestMS: firstTest, DoneMS: doneMS,
	}
	ses.mu.Lock()
	res.Workload, res.Mode = ses.workload, ses.mode
	ses.mu.Unlock()
	if st != nil {
		res.Summary = st.Summary()
		res.Runs, res.TestsGenerated, res.Bugs = st.Runs, st.TestsGenerated, len(st.Bugs)
		if canon, cerr := st.Canonical(); cerr == nil {
			res.CanonicalStats = canon
		}
	}
	if camp != nil {
		// The campaign is the durable source of truth — a resumed session's
		// result covers the whole campaign, not just its slice.
		for _, e := range camp.Entries() {
			if e.Rung != "seed" {
				res.Tests = append(res.Tests, TestCase{Input: e.Input, Rung: e.Rung, Run: e.Run, Bug: e.Bug})
			}
		}
		res.Buckets = camp.Buckets()
	}

	var counter string
	switch state {
	case StateDone:
		counter = "serve.completed"
	case StateFailed:
		counter = "serve.failed"
	case StateCancelled:
		counter = "serve.cancelled"
	case StateInterrupted:
		counter = "serve.interrupted"
	}
	s.obs.Counter(counter).Inc()

	data, merr := json.MarshalIndent(res, "", "  ")
	if merr == nil && state != StateInterrupted {
		_ = campaign.WriteFileAtomic(s.corpusDir(ses.CorpusID)+"/result.json", data, 0o644)
	}

	ses.mu.Lock()
	ses.state = state
	ses.errMsg = errMsg
	if state != StateInterrupted {
		ses.result = res
	}
	// Observability handles stay attached while the result is retained so
	// /events can still serve the flight dump; eviction drops both.
	ses.mu.Unlock()

	if state == StateDone || state == StateCancelled {
		s.recordLatencies(firstTest, doneMS)
	}
	if state != StateInterrupted {
		s.mu.Lock()
		s.retainLocked(ses, int64(len(data))+int64(s.opts.FlightRecorderSize)*128)
		s.mu.Unlock()
	}
}
