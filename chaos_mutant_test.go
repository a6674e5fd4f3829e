//go:build flowcache_reuse_mutant

package flexnet

import "testing"

// TestChaosSoakCatchesCacheReuse shows the flow-cache soak's stale-serve
// check can fail. It builds only with the flowcache_reuse_mutant tag,
// which swaps in a device commit that hands each new configuration the
// previous configuration's cache (internal/dataplane/
// flowcache_commit_mutant.go): after a crash or a reinstall, s2 then
// replays outcomes recorded under an older epoch, and the soak must count
// them. Run it with `make mutants`.
func TestChaosSoakCatchesCacheReuse(t *testing.T) {
	_, stale := cacheChaosSoak(t, 1, true, chaosSeconds())
	if stale == 0 {
		t.Fatal("the soak did not notice commits reusing the previous configuration's cache")
	}
	t.Logf("caught: %d cache hits served an outcome recorded under another epoch", stale)
}
