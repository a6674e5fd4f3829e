//go:build state_array_mutant

package migrate

import "testing"

// TestMigrationCatchesExportMutant shows the zeroed-slot migration check
// can fail. It builds only with the state_array_mutant tag, whose array
// maps export only their non-zero slots (internal/dataplane/state/
// slots_mutant.go), so the cleared heavy-hitter slots never reach the
// destination. Run it with `make mutants`.
func TestMigrationCatchesExportMutant(t *testing.T) {
	bad := zeroedSlotsMismatch(t)
	if len(bad) == 0 {
		t.Fatal("the migration check did not notice zero-valued slots left behind")
	}
	t.Logf("caught: %v", bad)
}
