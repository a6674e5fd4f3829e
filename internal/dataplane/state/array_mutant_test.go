//go:build state_array_mutant

package state

import "testing"

// TestArrayModelCatchesExportMutant shows the array-map model check can
// fail. It builds only with the state_array_mutant tag, which swaps in
// an Export that drops slots written with 0 (slots_mutant.go). Run it
// with `make mutants`.
func TestArrayModelCatchesExportMutant(t *testing.T) {
	err := arrayModelMismatch(3, 200, 10000)
	if err == nil {
		t.Fatal("the model check did not notice Export dropping zero-valued slots")
	}
	t.Logf("caught: %v", err)
}
