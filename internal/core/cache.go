package core

import (
	"sync"

	"tycos/internal/mi"
)

// EstimatorCache pools warm incremental KSG estimators across searches.
//
// One search already recycles its own retired estimators (the incScorer pool
// of PR 5), but a fleet workload — the discovery engine confirming dozens of
// candidates against one anchor — builds and tears down a scorer per
// candidate, losing every multiset, point-state and list allocation between
// searches. Passing a shared cache through Options.EstimatorCache lets the
// next search's first rebuilds start from a warm estimator instead of the
// heap.
//
// The cache is result-invisible by construction: a cached estimator is
// Reconfigured (empty, re-tuned k, counters zeroed) before use, and the
// Reload/Reconfigure contract makes that bit-identical to a fresh
// estimator. Which searches hit or miss the cache varies with
// scheduling, but since hits and misses produce identical estimates, events
// and counters, byte-identical output guarantees are unaffected.
//
// All methods are safe for concurrent use.
type EstimatorCache struct {
	mu   sync.Mutex
	pool []*mi.Incremental
	max  int

	gets, hits int64
}

// defaultEstimatorCacheMax bounds an unbounded cache: enough for a worker
// pool's worth of per-delay caches (maxIncStates each) without pinning
// arbitrary memory.
const defaultEstimatorCacheMax = 64

// NewEstimatorCache returns a cache retaining at most max estimators
// (max ≤ 0 → 64). Estimators put back beyond the bound are dropped for the
// garbage collector.
func NewEstimatorCache(max int) *EstimatorCache {
	if max <= 0 {
		max = defaultEstimatorCacheMax
	}
	return &EstimatorCache{max: max}
}

// take pops a pooled estimator re-tuned to k, or returns nil when the pool
// is empty and the caller must construct one.
func (c *EstimatorCache) take(k int) *mi.Incremental {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.gets++
	n := len(c.pool)
	if n == 0 {
		c.mu.Unlock()
		return nil
	}
	inc := c.pool[n-1]
	c.pool = c.pool[:n-1]
	c.hits++
	c.mu.Unlock()
	inc.Reconfigure(k)
	return inc
}

// put returns retired estimators to the pool, dropping any beyond the bound.
func (c *EstimatorCache) put(incs ...*mi.Incremental) {
	if c == nil || len(incs) == 0 {
		return
	}
	c.mu.Lock()
	for _, inc := range incs {
		if inc == nil {
			continue
		}
		if len(c.pool) >= c.max {
			break
		}
		c.pool = append(c.pool, inc)
	}
	c.mu.Unlock()
}

// Len reports the number of pooled estimators.
func (c *EstimatorCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pool)
}

// Hits reports the cache's take/hit totals, for tests and capacity tuning.
func (c *EstimatorCache) Hits() (gets, hits int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets, c.hits
}
