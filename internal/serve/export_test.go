package serve

import (
	"context"
	"sync"
	"testing"
)

// HoldRunning makes every session that starts running from now on wait in
// StateRunning until release is called or the session is cancelled. The
// hold is released and removed when the test ends.
func HoldRunning(t testing.TB) (release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	holdRunning = func(ctx context.Context) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() {
		release()
		holdRunning = nil
	})
	return release
}
