package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// Lock is an exclusive advisory lock on a campaign directory. Campaign state
// is single-writer by design (RecordRun applies in canonical order, the
// corpus commit is last-writer-wins), so two live sessions over one directory
// would silently interleave corpus and checkpoint writes. The lock turns that
// into a loud open-time error.
type Lock struct {
	path string
}

// lockFileName is the lock file inside a campaign directory. It holds the
// owning process id in ASCII, which is what lets a later session detect and
// break the lock of a SIGKILLed predecessor.
const lockFileName = "LOCK"

// AcquireLock takes the exclusive session lock for a campaign directory,
// creating the directory if needed. A lock whose owning process is gone (the
// kill -9 case) is broken and re-acquired; a lock owned by a live process is
// an error naming the pid, so the operator can decide who wins.
func AcquireLock(dir string) (*Lock, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	path := filepath.Join(dir, lockFileName)
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			if cerr := f.Close(); cerr != nil {
				os.Remove(path)
				return nil, fmt.Errorf("campaign: writing lock: %w", cerr)
			}
			return &Lock{path: path}, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // raced with the holder's release; retry
			}
			return nil, fmt.Errorf("campaign: reading lock: %w", rerr)
		}
		pid, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr == nil && pidAlive(pid) {
			return nil, fmt.Errorf("campaign: %s locked by live session (pid %d)", dir, pid)
		}
		// Unparseable owner or dead process: a stale lock from a crashed
		// session. Break it and retry the exclusive create once.
		if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			return nil, fmt.Errorf("campaign: breaking stale lock: %w", rmErr)
		}
	}
	return nil, fmt.Errorf("campaign: %s lock contended", dir)
}

// Release frees the lock. Releasing twice is harmless.
func (l *Lock) Release() error {
	if l == nil || l.path == "" {
		return nil
	}
	path := l.path
	l.path = ""
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("campaign: releasing lock: %w", err)
	}
	return nil
}

// pidAlive reports whether a process with the given pid exists. Signal 0
// probes existence without delivering anything; EPERM still means "exists".
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || err == syscall.EPERM
}
