//go:build go1.23 && race

package des

import "sync"

const raceEnabled = true

// A coroutine's goroutine that exits keeps its race-detector context: the
// runtime's coroexit, unlike goexit, does not release it (go1.24), so each
// coroutine stopped under -race leaks tens of kilobytes, and a test suite
// that runs thousands of trials exhausts memory. Race builds therefore
// keep retired coroutines in one process-wide pool that every Env draws
// from, which bounds their number by the peak of running processes —
// started and not yet returned; a process waiting for its GoAt start holds
// none.
var coroPool struct {
	sync.Mutex
	idle []*coro
}

// retireCoro returns an idle coroutine to the pool.
func retireCoro(c *coro) {
	coroPool.Lock()
	coroPool.idle = append(coroPool.idle, c)
	coroPool.Unlock()
}

// pooledCoro takes an idle coroutine from the pool, or returns nil.
func pooledCoro() *coro {
	coroPool.Lock()
	defer coroPool.Unlock()
	n := len(coroPool.idle)
	if n == 0 {
		return nil
	}
	c := coroPool.idle[n-1]
	coroPool.idle[n-1] = nil
	coroPool.idle = coroPool.idle[:n-1]
	return c
}
