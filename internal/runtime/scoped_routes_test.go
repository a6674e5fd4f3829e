package runtime

import (
	"reflect"
	"testing"

	"flexnet/internal/plan"
)

// recordingRoutes is a plan.RouteUpdater that records the device scope
// of every refresh the executor asks for.
type recordingRoutes struct {
	touched [][]string
}

func (r *recordingRoutes) RefreshRoutesTouched(devices []string) error {
	r.touched = append(r.touched, devices)
	return nil
}

// TestRouteUpdateScopedToPlanDevices checks the executor hands a plan's
// touch-set to RouteUpdater.RefreshRoutesTouched so only devices the
// plan changed are refreshed.
func TestRouteUpdateScopedToPlanDevices(t *testing.T) {
	f, _ := threeSwitchLine(t)
	rec := &recordingRoutes{}
	x := NewExecutor(f.Sim, f.Device, nil, rec)

	p := plan.New("scoped").
		Install("s1", "acl1", aclProgram("acl1"), nil, 0).
		Install("s3", "acl3", aclProgram("acl3"), nil, 0).
		RouteUpdate()
	rep := runPlan(t, f, x, p)
	if rep.Err != nil {
		t.Fatalf("plan failed: %v", rep.Err)
	}
	if len(rec.touched) != 1 || !reflect.DeepEqual(rec.touched[0], []string{"s1", "s3"}) {
		t.Fatalf("RefreshRoutesTouched calls = %v, want [[s1 s3]]", rec.touched)
	}
}

// TestRouteUpdateWithoutDevicesFallsBackToFull checks a bare RouteUpdate
// plan (no structural steps, empty touch-set) refreshes everything.
func TestRouteUpdateWithoutDevicesFallsBackToFull(t *testing.T) {
	f, _ := threeSwitchLine(t)
	rec := &recordingRoutes{}
	x := NewExecutor(f.Sim, f.Device, nil, rec)

	rep := runPlan(t, f, x, plan.New("bare").RouteUpdate())
	if rep.Err != nil {
		t.Fatalf("plan failed: %v", rep.Err)
	}
	if len(rec.touched) != 1 || rec.touched[0] != nil {
		t.Fatalf("RefreshRoutesTouched calls = %v, want one with nil (every device)", rec.touched)
	}
}
