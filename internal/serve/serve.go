// Package serve is the multi-tenant campaign server: test generation as a
// service. It accepts campaign submissions over HTTP, runs each as an
// isolated session — its own obs registry and flight recorder, its own
// locked corpus root, its own cancellation context, LRU-capped proof and
// summary caches — under bounded concurrency with a submission queue and
// backpressure, a server-wide memory budget with LRU eviction of retained
// results, and graceful drain: on SIGTERM in-flight sessions stop at their
// last periodic checkpoint and a restarted server resumes them
// bit-identically by corpus ID. See DESIGN.md §14 for the lifecycle state
// machine and the determinism argument.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/obs"
	"hotg/internal/obshttp"
	"hotg/internal/smt"
)

// Submission errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull means both the running slots and the admission queue are
	// at capacity; the client should retry after backoff (429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining means the server is shutting down and admits nothing (503).
	ErrDraining = errors.New("serve: server is draining")
	// ErrCorpusBusy means a live session already owns the requested corpus
	// ID (409); wait for it or pick another corpus.
	ErrCorpusBusy = errors.New("serve: corpus is in use by a live session")
)

// Options configures a Server. The zero value is usable: defaults are
// applied by New.
type Options struct {
	// Dir is the data root: sessions.json plus one corpus directory per
	// corpus ID under Dir/corpus/. Required.
	Dir string
	// MaxConcurrent bounds simultaneously running sessions (default 4).
	MaxConcurrent int
	// MaxQueue bounds sessions waiting for a slot (default 256). A
	// submission past both bounds is rejected with ErrQueueFull.
	MaxQueue int
	// MemoryBudget bounds the bytes of retained finished-session state
	// (results, flight recorders). Exceeding it evicts the
	// least-recently-used finished sessions — their results remain on disk
	// and resubmitting with the same corpus ID recovers the campaign.
	// Default 256 MiB.
	MemoryBudget int64
	// CacheCap is the per-session proof-cache LRU bound, in entries per
	// map (search.Options.CacheCap); default 4096, -1 disables capping.
	CacheCap int
	// SummaryCap is the per-session compositional-summary LRU bound
	// (concolic.SummaryCache.MaxCases); default 1024, -1 disables capping.
	SummaryCap int
	// DefaultMaxRuns is the execution budget for specs that set none
	// (default 150).
	DefaultMaxRuns int
	// DefaultWorkers is the per-session worker count for specs that set
	// none (default 2).
	DefaultWorkers int
	// CheckpointEvery is the default checkpoint cadence in runs (default
	// 20) — the upper bound on replayed work after a drain.
	CheckpointEvery int
	// SessionTimeout caps each session's wall clock (0 = none).
	SessionTimeout time.Duration
	// FlightRecorderSize is the per-session event ring capacity (default
	// 512).
	FlightRecorderSize int
	// Obs receives the server-wide serve.* metrics (admissions, evictions,
	// latency histograms). May be nil.
	Obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	if o.MemoryBudget <= 0 {
		o.MemoryBudget = 256 << 20
	}
	if o.CacheCap == 0 {
		o.CacheCap = 4096
	}
	if o.CacheCap < 0 {
		o.CacheCap = 0
	}
	if o.SummaryCap == 0 {
		o.SummaryCap = 1024
	}
	if o.SummaryCap < 0 {
		o.SummaryCap = 0
	}
	if o.DefaultMaxRuns <= 0 {
		o.DefaultMaxRuns = 150
	}
	if o.DefaultWorkers <= 0 {
		o.DefaultWorkers = 2
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 20
	}
	if o.FlightRecorderSize <= 0 {
		o.FlightRecorderSize = 512
	}
	return o
}

// Server runs campaign sessions. Create with New, serve its Handler, and
// shut down with Drain (graceful; checkpointed sessions resume on restart)
// or Close (Drain with a default timeout).
type Server struct {
	opts Options
	obs  *obs.Obs

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string   // submission order, for listing and persistence
	queue    []*Session // admission queue, FIFO
	lruDone  []string   // finished sessions retaining results, LRU first
	running  int
	retained int64
	seq      int
	draining bool

	persistMu sync.Mutex
	wg        sync.WaitGroup
}

// New opens (creating if needed) the data directory, recovers the session
// index from a previous process — re-queuing interrupted sessions for
// checkpoint resume and reloading finished results from disk — and returns
// a server ready to admit submissions.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("serve: Options.Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "corpus"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts: opts, obs: opts.Obs,
		baseCtx: ctx, cancelBase: cancel,
		sessions: make(map[string]*Session),
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	s.mu.Lock()
	s.pumpLocked()
	s.publishGauges()
	s.mu.Unlock()
	return s, nil
}

// Submit validates and admits one campaign submission. It returns the
// session immediately (202-style): progress streams from /events and the
// result appears when the state turns terminal. Errors: ErrDraining,
// ErrQueueFull, ErrCorpusBusy, or a validation error.
func (s *Server) Submit(spec Spec) (*Session, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.Counter("serve.submitted").Inc()
	if s.draining {
		s.obs.Counter("serve.rejected.draining").Inc()
		return nil, ErrDraining
	}
	// Conflict before capacity: holding a busy corpus is the more specific
	// rejection, and it should not depend on queue pressure.
	if spec.CorpusID != "" {
		for _, other := range s.sessions {
			if other.CorpusID == spec.CorpusID && !terminalState(other.State()) {
				s.obs.Counter("serve.rejected.conflict").Inc()
				return nil, fmt.Errorf("%w: corpus %q is held by %s", ErrCorpusBusy, spec.CorpusID, other.ID)
			}
		}
	}
	if len(s.queue) >= s.opts.MaxQueue {
		s.obs.Counter("serve.rejected.queue_full").Inc()
		return nil, ErrQueueFull
	}
	s.seq++
	id := fmt.Sprintf("s%06d", s.seq)
	corpusID := spec.CorpusID
	if corpusID == "" {
		corpusID = id
	}
	ses := &Session{
		ID: id, CorpusID: corpusID, srv: s, spec: spec,
		state: StateQueued, submitted: time.Now(), firstTestMS: -1,
	}
	s.sessions[id] = ses
	s.order = append(s.order, id)
	s.queue = append(s.queue, ses)
	s.obs.Counter("serve.admitted").Inc()
	s.pumpLocked()
	s.publishGauges()
	s.persistLocked()
	return ses, nil
}

// Get returns a session by ID.
func (s *Server) Get(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ses, ok := s.sessions[id]
	return ses, ok
}

// List returns every session in submission order.
func (s *Server) List() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sessions[id])
	}
	return out
}

// Cancel stops a session: a queued one is removed from the queue and marked
// cancelled; a running one has its context cancelled and finishes with
// partial (valid) results. Returns false for unknown or already-terminal
// sessions.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	ses, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	ses.mu.Lock()
	switch ses.state {
	case StateQueued:
		ses.state = StateCancelled
		ses.mu.Unlock()
		for i, q := range s.queue {
			if q == ses {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.obs.Counter("serve.cancelled").Inc()
		s.publishGauges()
		s.persistLocked()
		s.mu.Unlock()
		return true
	case StateRunning:
		ses.mu.Unlock()
		s.mu.Unlock()
		ses.requestCancel()
		return true
	}
	ses.mu.Unlock()
	s.mu.Unlock()
	return false
}

// Result returns a finished session's retained result, touching its
// eviction recency. ok is false while the session is still queued/running
// or after eviction (state says which).
func (s *Server) Result(id string) (*Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ses, ok := s.sessions[id]
	if !ok {
		return nil, false
	}
	ses.mu.Lock()
	res := ses.result
	ses.mu.Unlock()
	if res == nil {
		return nil, false
	}
	s.touchLocked(id)
	return res, true
}

// Drain stops admission, cancels running sessions (their last periodic
// checkpoint stays on disk; they are marked interrupted and resume on the
// next start), waits up to timeout for them to settle, and persists the
// session index. Queued sessions stay queued in the index and run after a
// restart. Safe to call more than once.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	var live []*Session
	for _, ses := range s.sessions {
		if ses.State() == StateRunning {
			live = append(live, ses)
		}
	}
	s.mu.Unlock()
	for _, ses := range live {
		ses.mu.Lock()
		cancel := ses.cancel
		ses.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-time.After(timeout):
		err = fmt.Errorf("serve: drain timed out after %v with sessions still running", timeout)
	}
	s.cancelBase()
	s.mu.Lock()
	s.persistLocked()
	s.mu.Unlock()
	return err
}

// Close drains with a 30-second timeout.
func (s *Server) Close() error { return s.Drain(30 * time.Second) }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Info returns the /statusz headline contribution: session counts by state
// and the retained-memory figure.
func (s *Server) Info() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := map[string]int64{}
	for _, ses := range s.sessions {
		counts["sessions_"+ses.State()]++
	}
	counts["sessions_total"] = int64(len(s.sessions))
	counts["retained_bytes"] = s.retained
	counts["queue_len"] = int64(len(s.queue))
	return counts
}

// SessionStatuses returns one /statusz row per session, in submission
// order — each backed by that session's own registry.
func (s *Server) SessionStatuses() []obshttp.SessionStatus {
	sessions := s.List()
	out := make([]obshttp.SessionStatus, 0, len(sessions))
	for _, ses := range sessions {
		out = append(out, obshttp.SessionStatus{
			ID: ses.ID, State: ses.State(), Headline: ses.headline(),
		})
	}
	return out
}

// pumpLocked starts queued sessions while running slots are free. Caller
// holds s.mu.
func (s *Server) pumpLocked() {
	for s.running < s.opts.MaxConcurrent && len(s.queue) > 0 && !s.draining {
		ses := s.queue[0]
		s.queue = s.queue[1:]
		ses.mu.Lock()
		ses.state = StateRunning
		// The recorder exists from the moment the session runs, so /events
		// never finds a running session without one.
		ses.rec = obs.NewFlightRecorder(s.opts.FlightRecorderSize)
		ses.mu.Unlock()
		s.running++
		s.wg.Add(1)
		go s.runSession(ses)
	}
}

// touchLocked refreshes a finished session's LRU recency. Caller holds s.mu.
func (s *Server) touchLocked(id string) {
	for i, d := range s.lruDone {
		if d == id {
			s.lruDone = append(s.lruDone[:i], s.lruDone[i+1:]...)
			s.lruDone = append(s.lruDone, id)
			return
		}
	}
}

// retainLocked charges a finished session's result against the memory
// budget and evicts the least-recently-used finished sessions past it.
// Caller holds s.mu.
func (s *Server) retainLocked(ses *Session, bytes int64) {
	ses.mu.Lock()
	ses.resultBytes = bytes
	ses.mu.Unlock()
	s.retained += bytes
	s.lruDone = append(s.lruDone, ses.ID)
	for s.retained > s.opts.MemoryBudget && len(s.lruDone) > 1 {
		victimID := s.lruDone[0]
		s.lruDone = s.lruDone[1:]
		victim := s.sessions[victimID]
		victim.mu.Lock()
		s.retained -= victim.resultBytes
		victim.resultBytes = 0
		victim.result = nil
		victim.o = nil
		victim.rec = nil
		victim.state = StateEvicted
		victim.errMsg = "evicted under the server memory budget; resubmit with corpus_id " +
			victim.CorpusID + " to recover the campaign from disk"
		victim.mu.Unlock()
		s.obs.Counter("serve.evicted").Inc()
	}
	s.publishGauges()
}

// publishGauges refreshes the serve.* gauges. Caller holds s.mu.
func (s *Server) publishGauges() {
	if !s.obs.Enabled() {
		return
	}
	s.obs.Gauge("serve.sessions.running").Set(int64(s.running))
	s.obs.Gauge("serve.sessions.queued").Set(int64(len(s.queue)))
	s.obs.Gauge("serve.retained_bytes").Set(s.retained)
	s.obs.Gauge("serve.sessions.total").Set(int64(len(s.sessions)))
}

// recordLatencies observes one finished session in the server-wide
// histograms and republishes the p50/p99 gauges benchtab reads.
func (s *Server) recordLatencies(firstTestMS, doneMS int64) {
	if !s.obs.Enabled() {
		return
	}
	if firstTestMS >= 0 {
		s.obs.Histogram("serve.submit_to_first_test_ms").Observe(firstTestMS)
	}
	h := s.obs.Histogram("serve.submit_to_done_ms")
	h.Observe(doneMS)
	s.obs.Gauge("serve.p50_ms").Set(h.Quantile(0.50))
	s.obs.Gauge("serve.p99_ms").Set(h.Quantile(0.99))
	if fh := s.obs.Histogram("serve.submit_to_first_test_ms"); firstTestMS >= 0 {
		s.obs.Gauge("serve.first_test_p50_ms").Set(fh.Quantile(0.50))
		s.obs.Gauge("serve.first_test_p99_ms").Set(fh.Quantile(0.99))
	}
}

// corpusDir returns the on-disk root for a corpus ID.
func (s *Server) corpusDir(corpusID string) string {
	return filepath.Join(s.opts.Dir, "corpus", corpusID)
}

func (s *Server) sessionsPath() string { return filepath.Join(s.opts.Dir, "sessions.json") }

// persistLocked serializes the session index. Caller holds s.mu; the disk
// write itself is serialized by persistMu so concurrent finalizers cannot
// interleave.
func (s *Server) persistLocked() {
	rows := make([]persistRec, 0, len(s.order))
	for _, id := range s.order {
		rows = append(rows, s.sessions[id].persistRec())
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return
	}
	s.persistMu.Lock()
	_ = campaign.WriteFileAtomic(s.sessionsPath(), data, 0o644)
	s.persistMu.Unlock()
}

// persist snapshots and writes the index without the caller holding s.mu.
func (s *Server) persist() {
	s.mu.Lock()
	s.persistLocked()
	s.mu.Unlock()
}

// recover rebuilds the session index from a previous process: terminal
// sessions reload their persisted results (missing results degrade to
// evicted — the corpus is still on disk), and queued/running/interrupted
// sessions are re-queued, resuming from their latest campaign checkpoint.
func (s *Server) recover() error {
	data, err := os.ReadFile(s.sessionsPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var rows []persistRec
	if err := json.Unmarshal(data, &rows); err != nil {
		return fmt.Errorf("serve: corrupt %s: %w", s.sessionsPath(), err)
	}
	for _, row := range rows {
		ses := &Session{
			ID: row.ID, CorpusID: row.CorpusID, srv: s, spec: row.Spec,
			submitted: time.Now(), firstTestMS: -1,
			workload: row.Spec.Workload, mode: row.Spec.Mode,
		}
		var n int
		if _, err := fmt.Sscanf(row.ID, "s%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		switch row.State {
		case StateDone, StateFailed, StateCancelled:
			res, bytes := s.loadResult(row.CorpusID)
			if res == nil {
				ses.state = StateEvicted
				ses.errMsg = "result not retained across restart; resubmit with corpus_id " +
					row.CorpusID + " to recover the campaign from disk"
			} else {
				ses.state = row.State
				ses.errMsg = row.Error
				ses.resumed = row.Resumed
				ses.result = res
				s.sessions[row.ID] = ses
				s.order = append(s.order, row.ID)
				s.retainLocked(ses, bytes)
				continue
			}
		case StateEvicted:
			ses.state = StateEvicted
			ses.errMsg = row.Error
		default:
			// queued, running, interrupted: run (again); the campaign
			// checkpoint makes the resume bit-identical to the lost
			// session's continuation.
			ses.state = StateQueued
			ses.resumed = true
			s.queue = append(s.queue, ses)
			s.obs.Counter("serve.resumed").Inc()
		}
		s.sessions[row.ID] = ses
		s.order = append(s.order, row.ID)
	}
	return nil
}

// loadResult reads a persisted result.json from a corpus directory.
func (s *Server) loadResult(corpusID string) (*Result, int64) {
	data, err := os.ReadFile(filepath.Join(s.corpusDir(corpusID), "result.json"))
	if err != nil {
		return nil, 0
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, 0
	}
	return &res, int64(len(data))
}

// validateSpec rejects malformed submissions before admission.
func validateSpec(spec Spec) error {
	if (spec.Workload == "") == (spec.Source == "") {
		return errors.New("serve: exactly one of workload or source is required")
	}
	if spec.Workload != "" {
		if _, ok := lexapp.Get(spec.Workload); !ok {
			return fmt.Errorf("serve: unknown workload %q", spec.Workload)
		}
	}
	if spec.Mode != "" {
		if _, err := concolic.ParseMode(spec.Mode); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if spec.CorpusID != "" && !validCorpusID(spec.CorpusID) {
		return fmt.Errorf("serve: corpus_id %q must match [a-zA-Z0-9._-]{1,128} and not start with a dot", spec.CorpusID)
	}
	if spec.MaxRuns < 0 || spec.Workers < 0 || spec.BudgetMS < 0 || spec.ProofTimeoutMS < 0 {
		return errors.New("serve: negative budgets are invalid")
	}
	return nil
}

// validCorpusID keeps corpus IDs safe as single path components.
func validCorpusID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// resolved is a compiled submission: the program, its identity, and the
// search configuration derived from the spec and server defaults.
type resolved struct {
	prog   *mini.Program
	name   string
	mode   concolic.Mode
	seeds  [][]int64
	bounds []smt.Bound
}

// resolveSpec compiles the submission. Workload specs reuse the registered
// program; source specs compile against the default natives ("hash",
// "hashstr") and are named by content hash so equal sources share nothing
// but their text.
func resolveSpec(spec Spec) (resolved, error) {
	var r resolved
	r.mode = concolic.ModeHigherOrder
	if spec.Mode != "" {
		m, err := concolic.ParseMode(spec.Mode)
		if err != nil {
			return r, fmt.Errorf("serve: %w", err)
		}
		r.mode = m
	}
	if spec.Workload != "" {
		w, ok := lexapp.Get(spec.Workload)
		if !ok {
			return r, fmt.Errorf("serve: unknown workload %q", spec.Workload)
		}
		r.prog, r.name, r.seeds, r.bounds = w.Build(), w.Name, w.Seeds, w.Bounds
	} else {
		prog, err := mini.Parse(spec.Source)
		if err != nil {
			return r, fmt.Errorf("serve: parse: %w", err)
		}
		ns := mini.Natives{}
		ns.Register("hash", 1, lexapp.ScrambledHash)
		ns.Register("hashstr", lexapp.ChunkLen, lexapp.HashStr)
		if err := mini.Check(prog, ns); err != nil {
			return r, fmt.Errorf("serve: check: %w", err)
		}
		sum := sha256.Sum256([]byte(spec.Source))
		r.prog, r.name = prog, "inline-"+hex.EncodeToString(sum[:6])
	}
	if len(spec.Seeds) > 0 {
		r.seeds = spec.Seeds
	}
	return r, nil
}

// sortedStates is a debugging helper used by tests: the states of every
// session, sorted.
func (s *Server) sortedStates() []string {
	var out []string
	for _, ses := range s.List() {
		out = append(out, ses.State())
	}
	sort.Strings(out)
	return out
}
