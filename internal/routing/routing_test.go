package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flexnet/internal/netsim"
)

// mirror is an engine plus the netsim network it shadows, so tests can
// compare incremental results against the simulator's reference BFS.
type mirror struct {
	eng   *Engine
	net   *netsim.Network
	links []*netsim.Link
	// dests mirrors AddDest registrations in order.
	dests []struct {
		name, node, skip string
		ip               uint32
	}
	devices []string
}

func newMirror(seed int64) *mirror {
	return &mirror{eng: New(), net: netsim.NewNetwork(netsim.New(seed))}
}

func (m *mirror) addDevice(name string) {
	m.net.AddNode(name)
	m.eng.AddNode(name)
	m.eng.MarkDevice(name)
	m.devices = append(m.devices, name)
}

func (m *mirror) addHost(name string, ip uint32) {
	m.net.AddNode(name)
	m.eng.AddNode(name)
	m.eng.AddDest(name, ip, name, "")
	m.dests = append(m.dests, struct {
		name, node, skip string
		ip               uint32
	}{name, name, "", ip})
}

func (m *mirror) connect(a, b string) *netsim.Link {
	l, _, _ := m.net.Connect(a, b, netsim.DefaultLink())
	m.eng.AddLink(a, b)
	m.links = append(m.links, l)
	return l
}

func (m *mirror) setLink(i int, down bool) {
	m.links[i].Down = down
	m.eng.SetLinkState(i, !down)
}

// reference computes every device's expected route list from the
// simulator's ShortestPaths — a full recompute with no shared state.
func (m *mirror) reference() map[string][]Route {
	want := map[string][]Route{}
	for di, d := range m.dests {
		next := m.net.ShortestPaths(d.node)
		for _, dev := range m.devices {
			if dev == d.skip {
				continue
			}
			if port, ok := next[dev]; ok {
				want[dev] = append(want[dev], Route{IP: d.ip, Port: int32(port), Dest: int32(di)})
			}
		}
	}
	for _, rs := range want {
		// Engine lists are sorted by (IP, Dest); the reference is built
		// in Dest order per IP already, so sort by IP stably.
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && (rs[j-1].IP > rs[j].IP || (rs[j-1].IP == rs[j].IP && rs[j-1].Dest > rs[j].Dest)); j-- {
				rs[j-1], rs[j] = rs[j], rs[j-1]
			}
		}
	}
	return want
}

func (m *mirror) check(t *testing.T, ctx string) {
	t.Helper()
	want := m.reference()
	for _, dev := range m.devices {
		got := m.eng.RoutesFor(dev)
		if len(got) == 0 && len(want[dev]) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]Route(nil), got...), want[dev]) {
			t.Fatalf("%s: device %s routes = %v, want %v", ctx, dev, got, want[dev])
		}
	}
}

// buildRandom wires a random connected topology: nDev devices in a ring
// (guaranteed connectivity) plus extra random device-device links, and
// nHost hosts each hanging off one random device.
func buildRandom(m *mirror, rng *rand.Rand, nDev, nHost, extraLinks int) {
	for i := 0; i < nDev; i++ {
		m.addDevice(fmt.Sprintf("d%d", i))
	}
	for i := 0; i < nHost; i++ {
		m.addHost(fmt.Sprintf("h%d", i), uint32(0x0a000000+i+2))
	}
	for i := 0; i < nDev; i++ {
		m.connect(fmt.Sprintf("d%d", i), fmt.Sprintf("d%d", (i+1)%nDev))
	}
	for i := 0; i < extraLinks; i++ {
		a, b := rng.Intn(nDev), rng.Intn(nDev)
		if a == b {
			continue
		}
		m.connect(fmt.Sprintf("d%d", a), fmt.Sprintf("d%d", b))
	}
	for i := 0; i < nHost; i++ {
		m.connect(fmt.Sprintf("h%d", i), fmt.Sprintf("d%d", rng.Intn(nDev)))
	}
}

// TestIncrementalMatchesReference drives random link-event sequences —
// single events and batches — and checks after every convergence that
// the engine's route lists are identical to a from-scratch reference.
func TestIncrementalMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newMirror(seed)
			buildRandom(m, rng, 4+rng.Intn(8), 2+rng.Intn(6), rng.Intn(10))
			m.eng.Converge()
			m.check(t, "initial")

			down := map[int]bool{}
			for step := 0; step < 60; step++ {
				// Random batch of 1–3 toggles between convergences.
				batch := 1 + rng.Intn(3)
				for b := 0; b < batch; b++ {
					li := rng.Intn(len(m.links))
					down[li] = !down[li]
					m.setLink(li, down[li])
				}
				_ = rng.Intn(4) // one spare draw per step: each seed's link sequence depends on it
				m.eng.Converge()
				m.check(t, fmt.Sprintf("step %d", step))
			}
		})
	}
}

// TestDirtinessIsSparse checks the delta-keying itself: events that
// provably cannot change routing must not dirty destinations, and a
// host-link failure must dirty only that host's destination.
func TestDirtinessIsSparse(t *testing.T) {
	m := newMirror(1)
	// d0–d1–d2 line, one host per device.
	for i := 0; i < 3; i++ {
		m.addDevice(fmt.Sprintf("d%d", i))
	}
	for i := 0; i < 3; i++ {
		m.addHost(fmt.Sprintf("h%d", i), uint32(0x0a000000+i+2))
	}
	m.connect("d0", "d1") // link 0
	m.connect("d1", "d2") // link 1
	for i := 0; i < 3; i++ {
		m.connect(fmt.Sprintf("h%d", i), fmt.Sprintf("d%d", i)) // links 2,3,4
	}
	if st := m.eng.Converge(); st.RecomputedDests != 3 {
		t.Fatalf("initial converge recomputed %d dests, want 3", st.RecomputedDests)
	}
	if st := m.eng.Converge(); st.RecomputedDests != 0 {
		t.Fatalf("idle converge recomputed %d dests, want 0", st.RecomputedDests)
	}

	// h0's uplink down: only h0's destination can change.
	m.setLink(2, true)
	if got := m.eng.ndirty; got != 1 {
		t.Fatalf("host-link down dirtied %d dests, want 1", got)
	}
	st := m.eng.Converge()
	if st.RecomputedDests != 1 {
		t.Fatalf("host-link down recomputed %d dests, want 1", st.RecomputedDests)
	}
	if st.DeltaWrites != 3 {
		t.Fatalf("host-link down delta writes = %d, want 3 (route removed from all devices)", st.DeltaWrites)
	}
	m.setLink(2, false)
	m.eng.Converge()
	m.check(t, "after restore")

	// Setting a link to its current state is a no-op.
	m.eng.SetLinkState(0, true)
	if got := m.eng.ndirty; got != 0 {
		t.Fatalf("idempotent SetLinkState dirtied %d dests", got)
	}
}

// TestDrainTouched checks touched-device tracking drives minimal table
// rewrites: only devices whose lists changed are reported, sorted, and
// the marks clear on drain.
func TestDrainTouched(t *testing.T) {
	m := newMirror(1)
	for i := 0; i < 3; i++ {
		m.addDevice(fmt.Sprintf("d%d", i))
	}
	m.addHost("h0", 0x0a000002)
	m.connect("d0", "d1")
	m.connect("d1", "d2")
	m.connect("h0", "d2")
	m.eng.Converge()
	got := m.eng.DrainTouched()
	want := []string{"d0", "d1", "d2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("initial DrainTouched = %v, want %v", got, want)
	}
	if again := m.eng.DrainTouched(); again != nil {
		t.Fatalf("second DrainTouched = %v, want nil", again)
	}
	// Idle converge touches nothing.
	m.eng.Converge()
	if got := m.eng.DrainTouched(); got != nil {
		t.Fatalf("idle converge touched %v", got)
	}
}
