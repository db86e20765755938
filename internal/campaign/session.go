package campaign

import (
	"fmt"
	"os"

	"hotg/internal/concolic"
	"hotg/internal/obs"
	"hotg/internal/search"
)

// Session is one campaign session, holding the directory's lock from Start
// until Finish. Every front end runs its sessions through it (DESIGN.md §9).
type Session struct {
	*Campaign
	// Rejected is why the latest checkpoint was not resumed from; nil when
	// there was none or it was restored.
	Rejected error
	// Seeded reports that opts.Seeds was replaced by the corpus inputs.
	Seeded bool

	lock *Lock
}

// Start locks and opens the campaign for eng's mode and wires opts to it:
// OnRun records runs and, when Checkpoint.Every > 0, the sink saves
// snapshots (a caller's hook runs after the campaign's). A checkpoint that
// loads and validates becomes opts.Restore, with its own MaxRuns; one that
// does not is kept in Rejected and emitted as checkpoint_rejected. Without a
// restore, a non-empty corpus replaces opts.Seeds with all its ranked inputs.
func Start(dir, workload string, eng *concolic.Engine, opts *search.Options) (*Session, error) {
	lock, err := AcquireLock(dir)
	if err != nil {
		return nil, err
	}
	c, err := Open(dir, workload, eng.Mode.String(), opts.Obs)
	if err != nil {
		lock.Release()
		return nil, err
	}
	s := &Session{Campaign: c, lock: lock}

	onRun := opts.OnRun
	opts.OnRun = func(rec search.RunRecord) {
		c.RecordRun(rec)
		if onRun != nil {
			onRun(rec)
		}
	}
	if sink := opts.Checkpoint.Sink; opts.Checkpoint.Every > 0 {
		opts.Checkpoint.Sink = func(snap *search.Snapshot) error {
			if err := c.SaveCheckpoint(snap); err != nil || sink == nil {
				return err
			}
			return sink(snap)
		}
	}

	snap, err := c.LatestCheckpoint()
	if err == nil && snap != nil {
		err = snap.Validate(eng)
	}
	switch {
	case err != nil:
		s.Rejected = err
		opts.Obs.Emit(obs.Event{Kind: "checkpoint_rejected", Worker: -1,
			Str: map[string]string{"err": err.Error()}})
	case snap != nil:
		if n := eng.Samples.Len(); n != 0 {
			lock.Release()
			return nil, fmt.Errorf("campaign: resuming %s needs a fresh engine, but its sample store holds %d entries", dir, n)
		}
		opts.Restore, opts.MaxRuns = snap, snap.MaxRuns
		return s, nil
	}
	if seeds := c.SeedInputs(); len(seeds) > 0 {
		opts.Seeds, s.Seeded = seeds, true
	}
	return s, nil
}

// Finish commits the corpus and releases the lock, even when the commit
// fails. If the search ended on its own (st is non-nil and neither
// cancelled nor timed out), it then deletes the checkpoints: they could only
// replay a finished search, so the next session warm-starts from the corpus.
func (s *Session) Finish(st *search.Stats) error {
	defer s.lock.Release()
	if err := s.Commit(); err != nil {
		return err
	}
	if st == nil || st.Budget.Cancelled || st.Budget.TimedOut {
		return nil
	}
	if err := os.RemoveAll(s.checkpointsDir()); err != nil {
		return fmt.Errorf("campaign: retiring checkpoints: %w", err)
	}
	return nil
}
