package runtime

import (
	"reflect"
	"testing"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/plan"
)

// recordingRoutes is a plan.RouteUpdater that counts the refreshes the
// executor asks for.
type recordingRoutes struct {
	refreshes int
}

func (r *recordingRoutes) RefreshRoutes() error {
	r.refreshes++
	return nil
}

// routeEntries returns the entries of dev's live route table.
func routeEntries(t *testing.T, f *fabric.Fabric, dev string) []*flexbpf.TableEntry {
	t.Helper()
	inst := f.Device(dev).Instance(fabric.InfraProgramName)
	if inst == nil {
		t.Fatalf("device %s has no routing program", dev)
	}
	return inst.Table(fabric.RouteTableName).Entries()
}

// TestRouteStepRepublishesReinstalledInfra: a route step refreshes
// every device, not only the ones its plan names. A staged infra
// reinstall on p0-e0 goes live with an empty route table; the route
// step of a later plan on another device must find the replaced table
// and write the engine's routes into it.
func TestRouteStepRepublishesReinstalledInfra(t *testing.T) {
	f := fabric.New(1)
	if err := fabric.BuildFatTree(f, fabric.FatTreeSpec{K: 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	const dev = "p0-e0"
	pc, err := f.Device(dev).PrepareChange(func(st *dataplane.StagedConfig) error {
		if err := st.Remove(fabric.InfraProgramName); err != nil {
			return err
		}
		return st.InstallOpt(fabric.InfraRoutingProgram(), dataplane.InstallOptions{Priority: dataplane.PriorityInfra})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Activate(); err != nil {
		t.Fatal(err)
	}
	if n := len(routeEntries(t, f, dev)); n != 0 {
		t.Fatalf("reinstalled infra went live with %d routes; the test shows nothing", n)
	}

	x := newTestExecutor(f, nil)
	rep := runPlan(t, f, x, plan.New("elsewhere").Install("p3-e1", "acl", aclProgram("acl"), nil, 0).RouteUpdate())
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	published := routeEntries(t, f, dev)
	if err := f.RefreshRoutesFull(); err != nil {
		t.Fatal(err)
	}
	want := routeEntries(t, f, dev)
	if len(published) != 16 || !reflect.DeepEqual(published, want) {
		t.Fatalf("after the route step %s holds %d routes, want the recomputed %d", dev, len(published), len(want))
	}
}

// TestRouteUpdateWithoutDevicesFallsBackToFull: a bare RouteUpdate plan
// names no device, so it conflicts with nothing: it runs beside an
// install on s1 and finishes first, with one fleet-wide refresh.
func TestRouteUpdateWithoutDevicesFallsBackToFull(t *testing.T) {
	f, _ := threeSwitchLine(t)
	rec := &recordingRoutes{}
	x := NewExecutor(f.Sim, f.Device, nil, rec)

	doneA, repA := submit(x, f.Sim, plan.New("A").Install("s1", "a", aclProgram("a"), nil, 0))
	doneR, repR := submit(x, f.Sim, plan.New("bare").RouteUpdate())
	f.Sim.RunFor(2 * time.Second)
	if *repA == nil || (*repA).Err != nil || *repR == nil || (*repR).Err != nil {
		t.Fatalf("reports: %+v / %+v", *repA, *repR)
	}
	if *doneR >= *doneA {
		t.Fatalf("bare route plan waited for the install on s1: routes done %v, A done %v", *doneR, *doneA)
	}
	if rec.refreshes != 1 {
		t.Fatalf("RefreshRoutes calls = %d, want 1", rec.refreshes)
	}
}
