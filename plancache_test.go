package inplace

import (
	"testing"

	"inplace/internal/stats"
)

// TestPlanCacheBuildAcrossFlush: a value whose build overlaps a flush
// was resolved against the wisdom the flush retired. Its caller gets it,
// but the cache does not publish it, so the next get builds afresh.
func TestPlanCacheBuildAcrossFlush(t *testing.T) {
	c := newPlanCache[int](stats.NewRegistry(), "test_cache")
	v, err := c.get(1, func() (any, error) {
		c.flush() // a wisdom store lands while the planner is being built
		return "stale", nil
	})
	if err != nil || v != "stale" {
		t.Fatalf("get = %v, %v; want the built value", v, err)
	}
	v, err = c.get(1, func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" {
		t.Fatalf("get after the flushed build = %v, %v; want a rebuild", v, err)
	}
	v, _ = c.get(1, func() (any, error) { return "unexpected", nil })
	if v != "fresh" {
		t.Fatalf("third get = %v, want the published rebuild", v)
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1 and 2", h, m)
	}
}
