package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hotg"
	// The facade exposes the tree-walking interpreter (hotg.Run) but not the
	// VM; bug replay needs both as evaluators independent of concolic, and the
	// junk seeds reuse the lexer's keyword table and input encoding.
	"hotg/internal/lexapp"
	"hotg/internal/mini"
)

// setupsPerRound is how many set-ups one round of lexer-ho or lexer-dart
// times; each is a fraction of a millisecond, so many make a steady median.
const setupsPerRound = 64

// chunkShapes are the chunk lengths of lexapp.JunkSeeds' three inputs, so
// every keyword slot stays reachable; 0 marks a one-digit number.
var chunkShapes = [][]int{{2, 0, 3, 0, 3}, {5, 0, 2, 3}, {3, 0, 2}}

// junkSeeds draws the initial inputs from seed in the style of
// lexapp.JunkSeeds: space-separated non-keyword lowercase words and digits.
func junkSeeds(seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	keyword := map[string]bool{}
	for _, k := range lexapp.Keywords {
		keyword[k.Word] = true
	}
	var out [][]int64
	for _, shape := range chunkShapes {
		var chunks []string
		for _, n := range shape {
			chunks = append(chunks, junkChunk(rng, n, keyword))
		}
		out = append(out, lexapp.EncodeInput(strings.Join(chunks, " ")))
	}
	return out
}

func junkChunk(rng *rand.Rand, n int, keyword map[string]bool) string {
	if n == 0 {
		return strconv.Itoa(rng.Intn(10))
	}
	for {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		if !keyword[string(b)] {
			return string(b)
		}
	}
}

// bench is one run of one workload.
type bench struct {
	cfg      config
	mode     hotg.Mode
	campaign bool
	workers  int // W, the parallel worker count
	seeds    [][]int64
	bounds   []hotg.Bound
	prog     *hotg.Program
	vm       *mini.Compiled

	want      string // canonical digest of the run's first search
	attempted int
	failed    int
	setups    []time.Duration
	dirs      int // campaign directories used so far
}

func newBench(cfg config) (*bench, error) {
	b := &bench{cfg: cfg, workers: min(4, runtime.NumCPU()), seeds: junkSeeds(cfg.seed)}
	switch cfg.workload {
	case "lexer-ho":
		b.mode = hotg.ModeHigherOrder
	case "lexer-dart":
		b.mode = hotg.ModeUnsound
	case "lexer-campaign":
		b.mode, b.campaign = hotg.ModeHigherOrder, true
	default:
		return nil, fmt.Errorf("unknown workload %q (want lexer-ho, lexer-dart or lexer-campaign)", cfg.workload)
	}
	w, _ := hotg.GetWorkload("lexer")
	if w == nil {
		return nil, errors.New("the lexer workload is not registered")
	}
	b.bounds = w.Bounds
	var err error
	b.prog, b.vm, _, err = b.build(nil)
	return b, err
}

// build is one set-up of the program under test: parse, check and compile
// the lexer, then make the concolic engine for the workload's mode.
func (b *bench) build(tr *tracer) (*hotg.Program, *mini.Compiled, *hotg.Engine, error) {
	var prog *hotg.Program
	var vm *mini.Compiled
	var err error
	tr.do("build", func() {
		w, ok := hotg.GetWorkload("lexer")
		if !ok {
			err = errors.New("the lexer workload is not registered")
			return
		}
		if prog, err = hotg.Compile(w.Source, w.Natives); err == nil {
			vm = mini.CompileVM(prog)
		}
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("building the lexer: %w", err)
	}
	var eng *hotg.Engine
	tr.do("NewEngine", func() { eng = hotg.NewEngine(prog, b.mode) })
	return prog, vm, eng, nil
}

// timeSetups times setupsPerRound set-ups of lexer-ho or lexer-dart.
func (b *bench) timeSetups(tr *tracer) error {
	tr.next()
	settle(1)
	for i := 0; i < setupsPerRound; i++ {
		t0 := cpuTime()
		if _, _, _, err := b.build(tr); err != nil {
			return err
		}
		b.setups = append(b.setups, cpuTime()-t0)
	}
	return nil
}

// settle pins GOMAXPROCS to the worker count about to run and collects
// garbage, so no timed interval pays for the previous one's allocations.
func settle(workers int) {
	runtime.GOMAXPROCS(workers)
	runtime.GC()
}

// outcome is one search, or one campaign with all of its sessions.
type outcome struct {
	workers int
	stats   *hotg.Stats
	runs    int           // program executions performed in the timed intervals
	cpu     time.Duration // CPU time of the timed intervals: searches, and commits for campaigns
	cov     time.Duration // timed CPU time up to the last run that gained coverage
	start   time.Duration // CPU time at the start of the running timed interval

	obs       *hotg.Observer // set on traced searches
	id        int            // the tracer's search ID
	gc        gcDelta
	ckptBytes int64
}

// timed runs f as one timed interval at the given worker count.
func (o *outcome) timed(f func()) {
	settle(o.workers)
	g := readGC()
	o.start = cpuTime()
	f()
	o.cpu += cpuTime() - o.start
	o.gc = o.gc.add(readGC().sub(g))
}

// onRun tracks coverage progress and passes each run on to record, if any.
func (o *outcome) onRun(tr *tracer, record func(hotg.RunRecord)) func(hotg.RunRecord) {
	return func(r hotg.RunRecord) {
		if r.Gained > 0 {
			o.cov = o.cpu + cpuTime() - o.start
		}
		if record != nil {
			tr.do("RecordRun", func() { record(r) })
		}
	}
}

func (o *outcome) rate() float64 { return float64(o.runs) / o.cpu.Seconds() }

// one runs a search (or a campaign) at the given worker count and checks it.
// A campaign is interrupted and resumed unless it is the run's reference.
func (b *bench) one(workers int, tr *tracer, interrupt bool) (*outcome, error) {
	out := &outcome{workers: workers, id: tr.next()}
	if tr != nil {
		out.obs = hotg.NewObserver()
	}
	var err error
	if b.campaign {
		err = b.runCampaign(out, tr, interrupt)
	} else {
		b.search(out, tr)
	}
	if err != nil {
		return nil, err
	}
	b.check(out)
	// The run keeps every outcome; dropping the checked stats keeps the heap,
	// and peak_rss_mb, from growing with the number of searches a run fits.
	out.stats = nil
	return out, nil
}

func (b *bench) options(out *outcome) hotg.SearchOptions {
	return hotg.SearchOptions{MaxRuns: b.cfg.budget, Seeds: b.seeds, Bounds: b.bounds,
		Workers: out.workers, Obs: out.obs}
}

func (b *bench) search(out *outcome, tr *tracer) {
	eng := hotg.NewEngine(b.prog, b.mode)
	opts := b.options(out)
	opts.OnRun = out.onRun(tr, nil)
	out.timed(func() { tr.do("Explore", func() { out.stats = hotg.Explore(eng, opts) }) })
	out.runs = out.stats.Runs
}

// runCampaign records a search to a fresh campaign directory. When
// interrupt is set the first session is cancelled after its second
// checkpoint, and a second session resumes it from disk.
func (b *bench) runCampaign(out *outcome, tr *tracer, interrupt bool) error {
	b.dirs++
	dir := filepath.Join(b.cfg.out, "campaigns", strconv.Itoa(b.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var c1 *hotg.Campaign
	var err error
	if tr.do("OpenCampaign", func() { c1, err = hotg.OpenCampaign(dir, "lexer", b.mode.String(), out.obs) }); err != nil {
		return err
	}
	stopAfter := 0
	if interrupt {
		stopAfter = 2
	}
	st1, err := b.session(out, tr, c1, hotg.NewEngine(b.prog, b.mode), b.options(out), stopAfter)
	if err != nil {
		return err
	}
	out.stats, out.runs = st1, st1.Runs
	if interrupt {
		if !st1.Budget.Cancelled {
			return errors.New("the campaign finished before its second checkpoint; nothing to resume")
		}
		settle(1)
		t0 := cpuTime()
		c2, snap, eng, err := b.resume(dir, out.obs, tr)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, cpuTime()-t0)
		opts := b.options(out)
		opts.Restore = snap
		st2, err := b.session(out, tr, c2, eng, opts, 0)
		if err != nil {
			return err
		}
		out.stats, out.runs = st2, st1.Runs+st2.Runs-snap.Runs
	}
	out.ckptBytes, err = dirBytes(filepath.Join(dir, "checkpoints"))
	return err
}

// session runs one campaign session as a timed interval: the search records
// every run to c and checkpoints to it every budget/10 runs, then c is
// committed. With stopAfter > 0 the search is cancelled after that many
// checkpoints.
func (b *bench) session(out *outcome, tr *tracer, c *hotg.Campaign, eng *hotg.Engine,
	opts hotg.SearchOptions, stopAfter int) (*hotg.Stats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if stopAfter > 0 {
		opts.Ctx = ctx
	}
	saved := 0
	opts.OnRun = out.onRun(tr, c.RecordRun)
	opts.Checkpoint = hotg.CheckpointOptions{Every: b.cfg.budget / 10, Sink: func(s *hotg.Snapshot) error {
		var err error
		tr.do("SaveCheckpoint", func() { err = c.SaveCheckpoint(s) })
		if saved++; saved == stopAfter {
			cancel()
		}
		return err
	}}
	var st *hotg.Stats
	var err error
	out.timed(func() {
		tr.do("Explore", func() { st = hotg.Explore(eng, opts) })
		tr.do("Commit", func() { err = c.Commit() })
	})
	if err == nil && st.CheckpointError != "" {
		err = fmt.Errorf("checkpoint: %s", st.CheckpointError)
	}
	return st, err
}

// resume is the set-up a user waits on after a kill: build the program and
// engine, reopen the campaign, load its latest checkpoint and validate it.
func (b *bench) resume(dir string, o *hotg.Observer, tr *tracer) (*hotg.Campaign, *hotg.Snapshot, *hotg.Engine, error) {
	_, _, eng, err := b.build(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	var c *hotg.Campaign
	if tr.do("OpenCampaign", func() { c, err = hotg.OpenCampaign(dir, "lexer", b.mode.String(), o) }); err != nil {
		return nil, nil, nil, err
	}
	var snap *hotg.Snapshot
	if tr.do("LatestCheckpoint", func() { snap, err = c.LatestCheckpoint() }); err != nil {
		return nil, nil, nil, err
	}
	if snap == nil {
		return nil, nil, nil, errors.New("the interrupted campaign left no checkpoint")
	}
	if tr.do("Validate", func() { err = snap.Validate(eng) }); err != nil {
		return nil, nil, nil, fmt.Errorf("validating the checkpoint: %w", err)
	}
	return c, snap, eng, nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// check counts the search and decides whether it failed: its canonical
// digest must equal the run's first search (so 1 and W workers, and a resumed
// campaign and an uninterrupted one, agree) and the committed reference at
// the reference seed and budget, and every bug it reports must reach its
// error site when replayed under the interpreter and the VM.
func (b *bench) check(out *outcome) {
	b.attempted++
	problems := b.problems(out)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "hotgbench: %s search at %d workers failed: %s\n", b.cfg.workload, out.workers, p)
	}
	if len(problems) > 0 {
		b.failed++
	}
}

func (b *bench) problems(out *outcome) []string {
	canon, err := out.stats.Canonical()
	if err != nil {
		return []string{fmt.Sprintf("canonical stats: %v", err)}
	}
	sum := sha256.Sum256(canon)
	digest := hex.EncodeToString(sum[:])
	var problems []string
	if b.want == "" {
		b.want = digest
	}
	if digest != b.want {
		problems = append(problems, fmt.Sprintf("canonical digest %s differs from the run's first search, %s", digest, b.want))
	}
	ref := b.cfg.ref
	if b.cfg.seed == ref.Seed && b.cfg.budget == ref.Budget && digest != ref.Digests[b.cfg.workload] {
		problems = append(problems, fmt.Sprintf("canonical digest %s differs from the committed reference %q",
			digest, ref.Digests[b.cfg.workload]))
	}
	for _, bug := range out.stats.Bugs {
		for name, res := range map[string]*hotg.RunResult{
			"interpreter": hotg.Run(b.prog, bug.Input),
			"vm":          mini.RunVM(b.vm, bug.Input, mini.RunOptions{}),
		} {
			if res.Kind != bug.Kind || (bug.Kind == mini.StopError && res.ErrorSite != bug.Site) {
				problems = append(problems, fmt.Sprintf("bug %q input %v replays under the %s as %v at site %d",
					bug.Msg, bug.Input, name, res.Kind, res.ErrorSite))
			}
		}
	}
	return problems
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOf returns the median of f over the outcomes.
func medianOf(outs []*outcome, f func(*outcome) float64) float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o)
	}
	return median(xs)
}

// pooledRate is the program executions per CPU second over all the
// outcomes. A run holds as few as five campaigns per worker count, too few
// for a steady quantile; the pooled rate uses every one of them.
func pooledRate(outs []*outcome) float64 {
	var runs int
	var cpu time.Duration
	for _, o := range outs {
		runs, cpu = runs+o.runs, cpu+o.cpu
	}
	return float64(runs) / cpu.Seconds()
}

// meanCov is the mean CPU time to the last coverage gain over the outcomes.
func meanCov(outs []*outcome) float64 {
	var sum time.Duration
	for _, o := range outs {
		sum += o.cov
	}
	return sum.Seconds() / float64(len(outs))
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the CPU time the process has used, user plus system. Every
// timing the benchmark reports is taken on this clock rather than the wall
// clock. On a shared 2-CPU virtual machine the hypervisor took 10-40% of
// the CPUs' time (the steal column of /proc/stat) in bursts lasting minutes,
// which moved wall-clock runs/s by up to a third between runs; CPU time
// leaves it out. At W workers it sums the workers' time, so runs_per_s there
// shows coordination overhead but not idle workers.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsName names the file system holding dir: tmpfs is memory-backed.
func fsName(dir string) string {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if uint64(st.Type) == tmpfsMagic {
		return "tmpfs (memory-backed)"
	}
	return fmt.Sprintf("disk (type %#x)", uint64(st.Type))
}

// run measures one workload for cfg.seconds: one discarded warm-up search,
// then timed set-ups and searches at W and 1 workers, alternating, until the
// time is up.
func run(cfg config) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if b.campaign {
		dir := filepath.Join(cfg.out, "campaigns")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "hotgbench: campaign directory %s is on %s\n", dir, fsName(dir))
	}
	// The warm-up is the run's reference: for lexer-campaign, an
	// uninterrupted campaign that every resumed one must reproduce.
	if _, err := b.one(b.workers, nil, false); err != nil {
		return nil, err
	}
	var par, seq, traced1, tracedW []*outcome
	type step struct {
		list    *[]*outcome
		workers int
		tr      *tracer
	}
	steps := []step{{&par, b.workers, nil}, {&seq, 1, nil}}
	if cfg.trace {
		// The untraced 1-worker searches are the tracing-overhead baseline.
		steps = []step{{&seq, 1, nil}, {&traced1, 1, tr}, {&tracedW, b.workers, tr}}
	}
	// Cycle through the steps until the time is up, each at least once.
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < len(steps) || time.Now().Before(deadline); i++ {
		s := steps[i%len(steps)]
		if s.list == &seq && !b.campaign {
			if err := b.timeSetups(tr); err != nil {
				return nil, err
			}
		}
		out, err := b.one(s.workers, s.tr, true)
		if err != nil {
			return nil, err
		}
		*s.list = append(*s.list, out)
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	setups := make([]float64, len(b.setups))
	for i, d := range b.setups {
		setups[i] = d.Seconds()
	}
	if cfg.trace {
		res.Metrics = layerMetrics(tr, seq, traced1, tracedW)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "hotgbench: %d spans written to %s\n", len(tr.spans), path)
	} else {
		res.Metrics = map[string]metric{
			"runs_per_s":    {pooledRate(par), "1/s"},
			"runs_per_s.w1": {pooledRate(seq), "1/s"},
			"cov_s":         {meanCov(par), "s"},
			"setup_s":       {median(setups), "s"},
			"peak_rss_mb":   {peakRSSMB(), "MB"},
			"pass_frac":     {float64(b.attempted-b.failed) / float64(b.attempted), "frac"},
		}
	}
	fmt.Fprintf(os.Stderr, "hotgbench: %s seed=%d budget=%d W=%d: %d searches (%d failed), %d set-ups, digest %s\n",
		cfg.workload, cfg.seed, cfg.budget, b.workers, b.attempted, b.failed, len(b.setups), b.want)
	for _, s := range []struct {
		name string
		outs []*outcome
	}{{"W workers", par}, {"1 worker", seq}, {"1 worker, traced", traced1}, {"W workers, traced", tracedW}} {
		if len(s.outs) > 0 {
			rates := make([]float64, len(s.outs))
			for i, o := range s.outs {
				rates[i] = o.rate()
			}
			sort.Float64s(rates)
			fmt.Fprintf(os.Stderr, "hotgbench: runs/s at %s: pooled %.1f, per search min %.1f median %.1f max %.1f over %d searches\n",
				s.name, pooledRate(s.outs), rates[0], median(rates), rates[len(rates)-1], len(rates))
		}
	}
	return res, nil
}
