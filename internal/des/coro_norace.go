//go:build go1.23 && !race

package des

const raceEnabled = false

// retireCoro ends an idle coroutine's goroutine.
func retireCoro(c *coro) { c.stop() }

// pooledCoro returns nil: only race builds keep coroutines across Envs.
func pooledCoro() *coro { return nil }
