package api

import "testing"

// TestKnown pins the accepted op names: canonical dashed names only. The
// underscore and method-era spellings earlier releases tolerated are
// unknown ops like any other typo.
func TestKnown(t *testing.T) {
	for _, op := range []string{"status", "spec-apply", "scale-out", "tenant-add", "heal-status"} {
		if !Known(op) {
			t.Errorf("Known(%q) = false, want true", op)
		}
	}
	for _, op := range []string{
		"scale_out", "scale_in", "tenant_add", "tenant_remove", "traffic_stop", "heal_status",
		"deploy-app", "remove-app", "migrate-app", "add-tenant", "remove-tenant",
		"bogus", "",
	} {
		if Known(op) {
			t.Errorf("Known(%q) = true, want false", op)
		}
	}
}

func TestTableConsistency(t *testing.T) {
	// Every canonical op has a non-empty summary and Names() covers all.
	names := Names()
	if len(names) != len(Ops) {
		t.Fatalf("Names() returned %d of %d ops", len(names), len(Ops))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted at %q", names[i])
		}
	}
	for _, n := range names {
		if Summary(n) == "" {
			t.Errorf("op %q has no summary", n)
		}
	}
}
