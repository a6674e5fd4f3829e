//go:build state_array_mutant

package state

// writtenSlots, in this test-only build (tag state_array_mutant), lists
// the non-zero slots: the natural bug of a dense store, which loses the
// slots written with 0. `make mutants` runs the array-map model check
// and the heavy-hitter migration check against it to show both can fail.
func writtenSlots(slots, _ []uint64) []KV {
	out := make([]KV, 0, len(slots))
	for k, v := range slots {
		if v != 0 {
			out = append(out, KV{uint64(k), v})
		}
	}
	return out
}
