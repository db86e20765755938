package eval

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/obs"
	"hotg/internal/search"
)

// scanFlushedTrace validates a kill -9 survivor's trace file: every line must
// parse as an obs.Event with ascending sequence numbers — except the final
// line, which may be a truncated tail if the kill landed between buffered
// writes. It returns the number of checkpoint events on disk and whether the
// tail was truncated.
func scanFlushedTrace(path string) (checkpoints int, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	var lastSeq int64
	var pendingErr error
	for sc.Scan() {
		if pendingErr != nil {
			// A malformed line followed by more lines is corruption, not a
			// truncated tail.
			return checkpoints, false, pendingErr
		}
		var ev obs.Event
		if e := json.Unmarshal(sc.Bytes(), &ev); e != nil {
			pendingErr = fmt.Errorf("line after seq %d: %w", lastSeq, e)
			continue
		}
		if ev.Seq <= lastSeq {
			return checkpoints, false, fmt.Errorf("sequence not ascending: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Kind == "checkpoint" {
			checkpoints++
		}
	}
	if err := sc.Err(); err != nil {
		return checkpoints, false, err
	}
	return checkpoints, pendingErr != nil, nil
}

// A5CampaignResume measures the persistent-campaign guarantee on the
// Section 7 lexer: a campaign killed at an arbitrary checkpoint and resumed
// in a new session reproduces the uninterrupted run exactly — same final
// statistics byte for byte, same bug buckets — and a later session re-running
// over the saved corpus reports every previously found bug exactly once per
// bucket (triage deduplication across sessions).
func A5CampaignResume(cfg Config) *Table {
	cfg = cfg.defaults()
	t := &Table{
		ID:    "A5",
		Title: "persistent campaigns: kill, resume, and triage across sessions (§7 lexer)",
		PaperClaim: "\"the test generation process can be run over a long period of time\" (§7): " +
			"persisted samples — and here the whole search state — let testing sessions stop and " +
			"resume without losing or double-counting results",
		Columns: []string{"session", "runs", "tests", "bugs", "buckets (new)", "corpus", "checkpoints"},
	}
	budget := cfg.Budget
	if budget > 300 {
		budget = 300 // the guarantee is budget-independent; keep A5 cheap
	}
	w := lexapp.Lexer()
	mode := concolic.ModeHigherOrder
	every := budget / 10
	if every < 2 {
		every = 2
	}

	tmp, err := os.MkdirTemp("", "hotg-a5-")
	if err != nil {
		t.claim(false, "create campaign directories: %v", err)
		return t
	}
	defer os.RemoveAll(tmp)

	row := func(name string, st *search.Stats, c *campaign.Session) {
		t.addRow(name, fmt.Sprintf("%d", st.Runs), fmt.Sprintf("%d", st.TestsGenerated),
			fmt.Sprintf("%d", len(st.Bugs)), fmt.Sprintf("%d (%d)", len(c.Buckets()), c.NewBuckets()),
			fmt.Sprintf("%d", len(c.Entries())), fmt.Sprintf("%d", st.Checkpoints))
	}
	fail := func(format string, args ...interface{}) *Table {
		t.claim(false, format, args...)
		return t
	}
	// session runs one campaign session over dir: Start resumes the
	// directory's checkpoint or seeds from its corpus (and says which in
	// opts), the search runs, and Finish commits.
	session := func(dir string, opts *search.Options) (*search.Stats, *campaign.Session, error) {
		eng := concolic.New(w.Build(), mode)
		opts.Seeds, opts.Bounds, opts.Obs = w.Seeds, w.Bounds, cmp.Or(opts.Obs, cfg.Obs)
		opts.Workers = cmp.Or(opts.Workers, cfg.Workers)
		opts.Budget = search.Budget{ProofTimeout: cfg.ProofTimeout, Degrade: cfg.Degrade}
		c, err := campaign.Start(dir, w.Name, eng, opts)
		if err != nil {
			return nil, nil, err
		}
		st := search.Run(eng, *opts)
		return st, c, c.Finish(st)
	}

	// Uninterrupted reference campaign.
	ref, refCamp, err := session(tmp+"/ref", &search.Options{MaxRuns: budget})
	if err != nil {
		return fail("reference campaign: %v", err)
	}
	row("uninterrupted", ref, refCamp)
	refCanon, err := ref.Canonical()
	if err != nil {
		return fail("canonicalize reference stats: %v", err)
	}

	// Session 1: killed (context cancellation) after its second checkpoint.
	// It streams a JSONL trace to disk and is never Closed — simulating a
	// kill -9 — to check the checkpoint-boundary Flush guarantee: the on-disk
	// prefix stays valid JSONL through the last checkpoint.
	dir := tmp + "/camp"
	tracePath := tmp + "/session1-trace.jsonl"
	traceFile, err := os.Create(tracePath)
	if err != nil {
		return fail("create session 1 trace: %v", err)
	}
	var reg *obs.Registry
	if cfg.Obs != nil {
		reg = cfg.Obs.Metrics
	}
	o1 := &obs.Obs{Metrics: reg, Trace: obs.NewTracer(traceFile)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saved := 0
	st1, c1, err := session(dir, &search.Options{
		MaxRuns: budget, Ctx: ctx, Obs: o1,
		Checkpoint: search.CheckpointOptions{Every: every, Sink: func(*search.Snapshot) error {
			if saved++; saved == 2 {
				cancel()
			}
			return nil
		}},
	})
	if err != nil {
		return fail("interrupted session: %v", err)
	}
	// No tracer Close, no final flush: only what checkpoint-boundary flushes
	// (and bufio overflow) pushed out is on disk, as after a real kill -9.
	if err := traceFile.Close(); err != nil {
		return fail("close session 1 trace file: %v", err)
	}
	row("1: killed mid-search", st1, c1)
	t.claim(st1.Budget.Cancelled && st1.Runs < ref.Runs,
		"session 1 was killed mid-search (%d of %d runs)", st1.Runs, ref.Runs)

	ckpts, truncated, parseErr := scanFlushedTrace(tracePath)
	t.claim(parseErr == nil,
		"the killed session's on-disk trace is valid JSONL through the last flushed event "+
			"(only the final unflushed line may be cut short; truncated tail: %v)", truncated)
	t.claim(ckpts >= 2,
		"the flushed prefix includes every checkpoint boundary event (%d checkpoints on disk, %d taken)",
		ckpts, st1.Checkpoints)

	// Session 2: resumes from the campaign's latest checkpoint, at the
	// interrupted session's budget.
	opts2 := &search.Options{Checkpoint: search.CheckpointOptions{Every: every}}
	st2, c2, err := session(dir, opts2)
	if err != nil {
		return fail("resumed session: %v", err)
	}
	if opts2.Restore == nil {
		return fail("session 2 did not resume from a checkpoint (rejected: %v)", c2.Rejected)
	}
	row(fmt.Sprintf("2: resumed at run %d", opts2.Restore.Runs), st2, c2)

	gotCanon, err := st2.Canonical()
	if err != nil {
		return fail("canonicalize resumed stats: %v", err)
	}
	t.claim(string(gotCanon) == string(refCanon),
		"the resumed session's final state is bit-identical to the uninterrupted run "+
			"(runs %d, tests %d, coverage %d/%d)",
		st2.Runs, st2.TestsGenerated, st2.BranchSidesCovered(), st2.BranchSidesTotal())

	refBuckets, gotBuckets := refCamp.Buckets(), c2.Buckets()
	sameBuckets := len(refBuckets) == len(gotBuckets)
	if sameBuckets {
		for i := range refBuckets {
			if refBuckets[i].Signature != gotBuckets[i].Signature {
				sameBuckets = false
				break
			}
		}
	}
	t.claim(sameBuckets && len(gotBuckets) > 0,
		"the interrupted-and-resumed campaign found the same %d bug buckets as the uninterrupted one",
		len(refBuckets))

	// Session 3: session 2 finished and retired its checkpoints, so this
	// one re-runs over the corpus session 2 committed.
	entriesBefore := len(c2.Entries())
	before := map[string]int{}
	for _, b := range c2.Buckets() {
		before[b.Signature] = b.Session
	}
	st3, c3, err := session(dir, &search.Options{MaxRuns: budget})
	if err != nil {
		return fail("session 3: %v", err)
	}
	if !c3.Seeded {
		return fail("saved corpus yielded no seeds")
	}
	row("3: re-run over corpus", st3, c3)
	// Every bucket known before session 3 keeps its original first-discovery
	// session: rediscovered bugs deduplicate into existing buckets instead of
	// being reported as new. Buckets the session did create are genuinely new
	// failure classes (first seen in session 3).
	dedupOK := true
	newOK := 0
	for _, b := range c3.Buckets() {
		if sess, known := before[b.Signature]; known {
			if b.Session != sess {
				dedupOK = false
			}
		} else {
			if b.Session != c3.Session {
				dedupOK = false
			}
			newOK++
		}
	}
	t.claim(len(st3.Bugs) > 0 && dedupOK && newOK == c3.NewBuckets(),
		"re-running over the saved corpus re-found bugs (%d occurrences): every known bug "+
			"deduplicated into its existing bucket, and only never-seen failure classes (%d) opened new ones",
		len(st3.Bugs), c3.NewBuckets())
	t.note("corpus entries before session 3: %d, after: %d (content addressing deduplicates re-found inputs)",
		entriesBefore, len(c3.Entries()))
	t.note("the determinism guarantee and its caveats (matching options, timing fields) are spelled out in DESIGN.md §9")
	return t
}
