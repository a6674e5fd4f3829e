package netsim

import (
	"testing"
)

// recordEvents subscribes a recorder to nw and returns the slice pointer.
func recordEvents(nw *Network) *[]TopoEvent {
	var evs []TopoEvent
	nw.Subscribe(func(ev TopoEvent) { evs = append(evs, ev) })
	return &evs
}

// TestTopoEventStream checks that every topology mutation emits exactly
// one event, synchronously, in order, with the right kind and payload.
func TestTopoEventStream(t *testing.T) {
	nw := NewNetwork(New(1))
	evs := recordEvents(nw)

	a := nw.AddNode("a")
	b := nw.AddNode("b")
	l, _, _ := nw.Connect("a", "b", DefaultLink())
	l.SetDown(true)
	l.SetDown(false)

	want := []struct {
		kind TopoEventKind
		node *Node
		link *Link
	}{
		{TopoNodeAdded, a, nil},
		{TopoNodeAdded, b, nil},
		{TopoLinkAdded, nil, l},
		{TopoLinkDown, nil, l},
		{TopoLinkUp, nil, l},
	}
	if len(*evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(*evs), len(want))
	}
	for i, w := range want {
		ev := (*evs)[i]
		if ev.Kind != w.kind || ev.Node != w.node || ev.Link != w.link {
			t.Fatalf("event %d = {%v %v %v}, want {%v %v %v}",
				i, ev.Kind, ev.Node, ev.Link, w.kind, w.node, w.link)
		}
	}
}

// TestSetDownIdempotent checks transition-only emission: setting a link
// to its current state produces no event, so subscribers never see
// duplicate up/down notifications.
func TestSetDownIdempotent(t *testing.T) {
	nw := NewNetwork(New(1))
	nw.AddNode("a")
	nw.AddNode("b")
	l, _, _ := nw.Connect("a", "b", DefaultLink())
	evs := recordEvents(nw)

	l.SetDown(false) // already up
	if len(*evs) != 0 {
		t.Fatalf("no-op SetDown(false) emitted %d events", len(*evs))
	}
	l.SetDown(true)
	l.SetDown(true) // already down
	if len(*evs) != 1 {
		t.Fatalf("got %d events after down+redundant down, want 1", len(*evs))
	}
	if (*evs)[0].Kind != TopoLinkDown {
		t.Fatalf("event kind = %v, want %v", (*evs)[0].Kind, TopoLinkDown)
	}
}

// TestLinkEnds checks the Ends accessor used by topology mirrors.
func TestLinkEnds(t *testing.T) {
	nw := NewNetwork(New(1))
	nw.AddNode("x")
	nw.AddNode("y")
	l, _, _ := nw.Connect("x", "y", DefaultLink())
	a, b := l.Ends()
	if a != "x" || b != "y" {
		t.Fatalf("Ends() = %q,%q, want x,y", a, b)
	}
}

// TestMultipleSubscribers checks delivery fan-out in subscription order.
func TestMultipleSubscribers(t *testing.T) {
	nw := NewNetwork(New(1))
	var order []int
	nw.Subscribe(func(TopoEvent) { order = append(order, 1) })
	nw.Subscribe(func(TopoEvent) { order = append(order, 2) })
	nw.AddNode("a")
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}
}
