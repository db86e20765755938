package campaign

import (
	"fmt"
	"os"

	"hotg/internal/obs"
	"hotg/internal/search"
)

// Campaign is one open persistent-campaign directory. A campaign accumulates
// state across any number of sessions: the corpus and triage buckets grow
// monotonically, and checkpoints let an interrupted session resume exactly
// where it stopped.
//
// A Campaign is not safe for concurrent use; the search delivers RunRecords
// and checkpoint snapshots from its coordinator goroutine in canonical apply
// order, which is exactly the serialization campaigns need.
type Campaign struct {
	Dir      string
	Workload string
	Mode     string
	// Session is this session's 1-based index within the campaign.
	Session int

	obs      *obs.Obs
	manifest Manifest
	entries  map[string]*Entry
	fresh    map[string]bool // hashes added this session, not yet committed
	buckets  map[string]*Bucket
	newBugs  int // buckets first created this session
	// ckptBuf is the last checkpoint file's buffer, reused by the next one:
	// a campaign's snapshots grow, and a fresh buffer of that size costs
	// zeroing and collection at every checkpoint.
	ckptBuf []byte
}

// Open opens (creating if needed) the campaign directory for one
// workload/mode pair. Reopening an existing campaign verifies the manifest
// version, the workload/mode binding, and every corpus entry's integrity
// hash. o may be nil.
func Open(dir, workload, mode string, o *obs.Obs) (*Campaign, error) {
	c := &Campaign{
		Dir:      dir,
		Workload: workload,
		Mode:     mode,
		obs:      o,
		entries:  map[string]*Entry{},
		fresh:    map[string]bool{},
		buckets:  map[string]*Bucket{},
	}
	for _, d := range []string{dir, c.inputsDir(), c.checkpointsDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	if _, err := os.Stat(c.manifestPath()); err == nil {
		if err := c.loadManifest(); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	c.manifest.Sessions++
	c.Session = c.manifest.Sessions
	c.obs.Counter("campaign.sessions").Add(1)
	return c, nil
}

// RecordRun ingests one search run, in canonical apply order: inputs that
// gained coverage, seeded the search, or triggered a bug enter the corpus
// (deduplicated by content address), and every bug is triaged into its
// bucket. Wire it as search.Options.OnRun.
func (c *Campaign) RecordRun(rec search.RunRecord) {
	interesting := rec.Gained > 0 || rec.Seed || len(rec.Bugs) > 0
	if interesting {
		rung := rec.Rung.String()
		if rec.Seed {
			rung = "seed"
		}
		c.addEntry(&Entry{
			Hash:    HashInput(rec.Input),
			Input:   append([]int64(nil), rec.Input...),
			Path:    rec.Path,
			Rung:    rung,
			Gained:  rec.Gained,
			Run:     rec.Run,
			Session: c.Session,
			Bug:     len(rec.Bugs) > 0,
		})
	}
	for _, b := range rec.Bugs {
		if c.triageBug(b) {
			c.newBugs++
		}
	}
}

// NewBuckets reports how many failure classes this session saw for the first
// time in the campaign's history. A session re-running over a saved corpus
// reports zero: every rediscovered bug deduplicates into its existing bucket.
func (c *Campaign) NewBuckets() int { return c.newBugs }
