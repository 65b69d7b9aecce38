package campaign

import "sync"

// memo deduplicates point executions by content hash within one campaign
// run: the first caller for a hash computes ("the leader"), concurrent
// callers with the same hash block until the leader finishes and share its
// result. Values stored in the memo are treated as immutable by contract
// (see Task.Assemble).
type memo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

type memoEntry struct {
	done  chan struct{}
	value any
	err   error
}

func newMemo() *memo { return &memo{m: make(map[string]*memoEntry)} }

// do returns the memoised value for hash, computing it via fn exactly once
// per campaign. fresh reports whether this call was the leader.
func (c *memo) do(hash string, fn func() (any, error)) (value any, err error, fresh bool) {
	c.mu.Lock()
	if e, ok := c.m[hash]; ok {
		c.mu.Unlock()
		<-e.done
		return e.value, e.err, false
	}
	e := &memoEntry{done: make(chan struct{})}
	c.m[hash] = e
	c.mu.Unlock()

	e.value, e.err = fn()
	close(e.done)
	return e.value, e.err, true
}
