//go:build flowcache_reuse_mutant

package dataplane

import "flexnet/internal/flowcache"

// commitCache, in this test-only build (tag flowcache_reuse_mutant),
// hands the new configuration the previous configuration's cache: the
// invalidation bug that serves pre-commit outcomes after a swap.
// `make mutants` runs TestChaosSoakCatchesCacheReuse against it to show
// the soak's stale-serve check can fail.
func commitCache(prev *config, _ uint64) *flowcache.Cache { return prev.fc }
