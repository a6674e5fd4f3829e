//go:build !state_array_mutant

package state

import "math/bits"

// writtenSlots lists an array map's written slots in key order, those
// stored with 0 included. slots_mutant.go replaces it in a test-only
// build with the bug the array-map checks must catch.
func writtenSlots(slots, written []uint64) []KV {
	out := make([]KV, 0, countWritten(written))
	for i, w := range written {
		for ; w != 0; w &= w - 1 {
			k := uint64(i*64 + bits.TrailingZeros64(w))
			out = append(out, KV{k, slots[k]})
		}
	}
	return out
}
