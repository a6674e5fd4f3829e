//go:build !flowcache_reuse_mutant

package dataplane

import "flexnet/internal/flowcache"

// commitCache returns the flow cache a configuration committed at epoch
// is published with: a new, empty one, which is all that invalidation is
// (DESIGN.md §12.1). flowcache_commit_mutant.go replaces it in a
// test-only build with the bug the chaos soak must catch.
func commitCache(_ *config, epoch uint64) *flowcache.Cache { return flowcache.New(epoch) }
