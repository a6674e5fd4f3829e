// Package routing implements the fabric's incremental shortest-path
// routing engine: per-destination route state keyed for delta updates.
//
// The engine mirrors the netsim topology in dense index form and holds,
// for every routed destination (host IP or dRPC control IP), the full
// BFS result of the last convergence — distance, chosen egress port per
// node, and the set of tree links the result depends on. Topology
// events (link up/down/add) mark only the destinations whose BFS output
// can actually change; Converge recomputes exactly those, diffs the new
// next-hops against the old, and folds the differences into per-device
// route lists, tracking which devices changed so the fabric rewrites
// only their tables. The result is byte-identical to a from-scratch
// recompute: the dirtiness rules below skip a destination only when its
// BFS output is provably unchanged.
//
// Dirtiness rules (BFS from the destination over up links, neighbors
// scanned in port order, visited-on-enqueue):
//
//   - Link down: a link that is not a tree edge of the destination's
//     BFS is never used for discovery (both endpoints are already
//     visited when it is scanned), so removing it leaves the traversal
//     — and therefore every distance and next-hop — unchanged. Only
//     tree-edge removals dirty the destination. Tree edges are recorded
//     only when the discovered child is transit-capable (a device, or a
//     multi-port node): a single-port host child receives no table
//     entry and nothing routes through it, so losing its uplink changes
//     no device's table for this destination.
//   - Link up: if both endpoints sit at the same BFS distance, every
//     node at that level was already enqueued before either endpoint
//     was processed, so the revived link is never used for discovery
//     and the output is unchanged. Otherwise the link can only change
//     the farther endpoint's subtree; if that endpoint is a single-port
//     host (which takes no table entries and carries no transit), the
//     output is again unchanged. Everything else is recomputed. The one
//     piece of state a skip leaves stale is the distance of a
//     single-port host whose reachability changed — and that value is
//     never consulted: the only link incident to such a host is the one
//     the host rule itself decides.
//   - Batched events are sound by induction: a destination left clean
//     by event k has state identical to a fresh BFS over the topology
//     after events 1..k, so rule evaluation for event k+1 sees exact
//     state.
//
// Convergence parallelizes over destinations — each BFS reads the
// shared immutable graph and writes only its own state — which a worker
// pool claims one at a time; results merge in destination order, so the
// outcome is byte-identical for any worker count.
//
// DESIGN.md §11 documents the engine, the delta model, and how deltas
// ride the epoch-commit machinery.
package routing

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Route is one desired routing-table entry on a device: destination IP
// routed out a port. Dest identifies the destination (registration
// order) so duplicate IPs keep a stable order.
type Route struct {
	IP   uint32
	Port int32
	Dest int32
}

type port struct {
	peer     int32 // neighbor node index
	peerPort int32 // port on the neighbor that leads back here
	link     int32
}

type node struct {
	name   string
	device bool
	ports  []port
}

type link struct {
	a, b int32
	up   bool
}

// dest is one routed destination and its last-converged BFS state.
type dest struct {
	name string
	ip   uint32
	node int32
	skip int32 // device that gets no entry for this dest (-1 = none)

	computed bool
	dist     []int32  // per node; -1 = unreachable
	next     []int32  // per node; egress port toward dest, -1 = none
	tree     []uint64 // bitset over links: discovery edges with transit-capable child
}

func (d *dest) distOf(v int32) int32 {
	if int(v) >= len(d.dist) {
		return -1
	}
	return d.dist[v]
}

func (d *dest) nextOf(v int32) int32 {
	if !d.computed || int(v) >= len(d.next) {
		return -1
	}
	return d.next[v]
}

// Stats summarizes one Converge call.
type Stats struct {
	// RecomputedDests is the number of destinations whose BFS ran.
	RecomputedDests int
	// RecomputedRoutes is the number of table entries re-derived
	// (recomputed destinations × devices that route to them).
	RecomputedRoutes int
	// DeltaWrites is the number of entries that actually changed
	// (inserts + deletes + modifies folded into device route lists).
	DeltaWrites int
	// TotalDests and TotalRoutes describe the full route state, for
	// incremental-vs-full comparisons.
	TotalDests  int
	TotalRoutes int
}

// Engine holds delta-keyed route state for one fabric. It is not safe
// for concurrent use; the fabric drives it from the event loop.
type Engine struct {
	nodes   []node
	nodeIdx map[string]int32
	links   []link
	dests   []dest
	destIdx map[string]int32

	// deviceList is device node indices in creation order; diff passes
	// iterate it so per-destination work is O(devices), not O(nodes).
	deviceList []int32

	dirty  []bool
	ndirty int

	// routes[node] is the device's desired table, sorted by (IP, Dest).
	routes      [][]Route
	touched     []bool
	anyTouched  bool
	totalRoutes int

	scratches []*scratch
}

// scratch is per-worker BFS workspace, reused across destinations.
type scratch struct {
	dist  []int32
	next  []int32
	tree  []uint64
	queue []int32
	// changes collects (device, new port) pairs for the destination
	// being recomputed; moved out after each BFS.
	changes []devChange
	routes  int // entries derived for the destination
}

type devChange struct {
	v    int32
	port int32
}

// New creates an empty engine.
func New() *Engine {
	return &Engine{nodeIdx: map[string]int32{}, destIdx: map[string]int32{}}
}

// AddNode registers a topology node. Nodes must be added in the same
// order as the mirrored netsim topology so port numbering matches.
func (e *Engine) AddNode(name string) {
	if _, dup := e.nodeIdx[name]; dup {
		panic(fmt.Sprintf("routing: duplicate node %q", name))
	}
	e.nodeIdx[name] = int32(len(e.nodes))
	e.nodes = append(e.nodes, node{name: name})
	e.routes = append(e.routes, nil)
	e.touched = append(e.touched, false)
}

// MarkDevice flags a node as a programmable device: it receives route
// entries and counts as transit-capable. Call before convergence.
func (e *Engine) MarkDevice(name string) {
	i, ok := e.nodeIdx[name]
	if !ok {
		panic(fmt.Sprintf("routing: MarkDevice on unknown node %q", name))
	}
	if !e.nodes[i].device {
		e.nodes[i].device = true
		e.deviceList = append(e.deviceList, i)
	}
}

// AddLink mirrors a netsim connect between two nodes and returns the
// link's index. Port numbers are assigned positionally, so AddLink
// calls must mirror netsim.Network.Connect calls one-for-one in order.
// The new link starts up, which dirties exactly the destinations whose
// routes it can improve.
func (e *Engine) AddLink(a, b string) int {
	na, ok := e.nodeIdx[a]
	if !ok {
		panic(fmt.Sprintf("routing: AddLink unknown node %q", a))
	}
	nb, ok := e.nodeIdx[b]
	if !ok {
		panic(fmt.Sprintf("routing: AddLink unknown node %q", b))
	}
	li := int32(len(e.links))
	e.links = append(e.links, link{a: na, b: nb, up: true})
	aPort := int32(len(e.nodes[na].ports))
	bPort := int32(len(e.nodes[nb].ports))
	e.nodes[na].ports = append(e.nodes[na].ports, port{peer: nb, peerPort: bPort, link: li})
	e.nodes[nb].ports = append(e.nodes[nb].ports, port{peer: na, peerPort: aPort, link: li})
	e.markAffectedByUp(&e.links[li])
	return int(li)
}

// AddDest registers a routed destination: every device gets an entry
// for ip toward node (except skipDevice, which may be empty).
func (e *Engine) AddDest(name string, ip uint32, nodeName, skipDevice string) {
	if _, dup := e.destIdx[name]; dup {
		panic(fmt.Sprintf("routing: duplicate destination %q", name))
	}
	ni, ok := e.nodeIdx[nodeName]
	if !ok {
		panic(fmt.Sprintf("routing: AddDest unknown node %q", nodeName))
	}
	skip := int32(-1)
	if skipDevice != "" {
		si, ok := e.nodeIdx[skipDevice]
		if !ok {
			panic(fmt.Sprintf("routing: AddDest unknown skip device %q", skipDevice))
		}
		skip = si
	}
	di := int32(len(e.dests))
	e.destIdx[name] = di
	e.dests = append(e.dests, dest{name: name, ip: ip, node: ni, skip: skip})
	e.dirty = append(e.dirty, false)
	e.markDirty(int(di))
}

// SetLinkState marks link li up or down, dirtying exactly the
// destinations whose BFS output the transition can change. Idempotent
// when the state already matches.
func (e *Engine) SetLinkState(li int, up bool) {
	l := &e.links[li]
	if l.up == up {
		return
	}
	l.up = up
	if up {
		e.markAffectedByUp(l)
		return
	}
	word, bit := li>>6, uint(li&63)
	for i := range e.dests {
		if e.dirty[i] {
			continue
		}
		d := &e.dests[i]
		if !d.computed {
			e.markDirty(i)
			continue
		}
		if word < len(d.tree) && d.tree[word]&(1<<bit) != 0 {
			e.markDirty(i)
		}
	}
}

func (e *Engine) markDirty(i int) {
	if !e.dirty[i] {
		e.dirty[i] = true
		e.ndirty++
	}
}

// MarkAllDirty queues every destination for recomputation (the
// full-recompute baseline).
func (e *Engine) MarkAllDirty() {
	for i := range e.dests {
		e.markDirty(i)
	}
}

func (e *Engine) markAffectedByUp(l *link) {
	for i := range e.dests {
		if e.dirty[i] {
			continue
		}
		d := &e.dests[i]
		if !d.computed {
			e.markDirty(i)
			continue
		}
		da, db := d.distOf(l.a), d.distOf(l.b)
		if da == db {
			continue // equal level or both unreachable: provably a no-op
		}
		far := l.a
		if db < 0 || (da >= 0 && db > da) {
			far = l.b
		}
		n := &e.nodes[far]
		if n.device || len(n.ports) > 1 {
			e.markDirty(i)
		}
	}
}

// Converge recomputes every dirty destination on up to workers
// goroutines and folds the per-destination next-hop changes into the
// per-device route lists. Results are byte-identical for any worker
// count: each BFS touches only its destination's state, and merges run
// in destination order.
func (e *Engine) Converge(workers int) Stats {
	st := Stats{TotalDests: len(e.dests)}
	if e.ndirty == 0 {
		st.TotalRoutes = e.totalRoutes
		return st
	}
	dirtyList := make([]int32, 0, e.ndirty)
	for i := range e.dests {
		if e.dirty[i] {
			dirtyList = append(dirtyList, int32(i))
		}
	}

	if workers < 1 {
		workers = 1
	}
	if workers > len(dirtyList) {
		workers = len(dirtyList)
	}
	for len(e.scratches) < workers {
		e.scratches = append(e.scratches, &scratch{})
	}

	// changesFor[k] holds the diff for dirtyList position k, produced in
	// parallel and merged serially in list order.
	changesFor := make([][]devChange, len(dirtyList))
	routesFor := make([]int, len(dirtyList))
	run := func(s *scratch, k int) {
		e.recompute(&e.dests[dirtyList[k]], s)
		changesFor[k] = s.changes
		routesFor[k] = s.routes
		s.changes = nil
	}

	if workers <= 1 {
		s := e.scratches[0]
		for k := range dirtyList {
			run(s, k)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		panics := make([]any, workers)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(slot int) {
				defer wg.Done()
				defer func() { panics[slot] = recover() }()
				s := e.scratches[slot]
				for {
					k := int(next.Add(1)) - 1
					if k >= len(dirtyList) {
						return
					}
					run(s, k)
				}
			}(w)
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}

	// Serial merge in destination order.
	for k, di := range dirtyList {
		d := &e.dests[di]
		e.dirty[di] = false
		st.RecomputedDests++
		st.RecomputedRoutes += routesFor[k]
		for _, ch := range changesFor[k] {
			e.applyChange(ch.v, d.ip, di, ch.port)
			st.DeltaWrites++
		}
	}
	e.ndirty = 0
	st.TotalRoutes = e.totalRoutes
	return st
}

// recompute runs the BFS for d into s, records the next-hop diff and
// derived-entry count in s, and installs the new state on d.
func (e *Engine) recompute(d *dest, s *scratch) {
	nn, nl := len(e.nodes), len(e.links)
	if cap(s.dist) < nn {
		s.dist = make([]int32, nn)
		s.next = make([]int32, nn)
	}
	s.dist = s.dist[:nn]
	s.next = s.next[:nn]
	for i := range s.dist {
		s.dist[i] = -1
		s.next[i] = -1
	}
	nw := (nl + 63) / 64
	if cap(s.tree) < nw {
		s.tree = make([]uint64, nw)
	}
	s.tree = s.tree[:nw]
	for i := range s.tree {
		s.tree[i] = 0
	}
	s.queue = append(s.queue[:0], d.node)
	s.dist[d.node] = 0
	for qi := 0; qi < len(s.queue); qi++ {
		cur := s.queue[qi]
		nd := s.dist[cur] + 1
		for _, p := range e.nodes[cur].ports {
			if !e.links[p.link].up {
				continue
			}
			nb := p.peer
			if s.dist[nb] >= 0 {
				continue
			}
			s.dist[nb] = nd
			s.next[nb] = p.peerPort
			child := &e.nodes[nb]
			if child.device || len(child.ports) > 1 {
				s.tree[p.link>>6] |= 1 << uint(p.link&63)
			}
			s.queue = append(s.queue, nb)
		}
	}

	// Diff against the previous state over device nodes only.
	s.routes = 0
	for _, v := range e.deviceList {
		if v == d.skip {
			continue
		}
		newPort := s.next[v]
		if newPort >= 0 {
			s.routes++
		}
		if d.nextOf(v) != newPort {
			s.changes = append(s.changes, devChange{v: v, port: newPort})
		}
	}

	// Install the new state (swap buffers so steady-state allocates
	// nothing once sizes stabilize).
	d.dist, s.dist = s.dist, d.dist[:0]
	d.next, s.next = s.next, d.next[:0]
	d.tree, s.tree = s.tree, d.tree[:0]
	d.computed = true
}

// applyChange folds one next-hop change into device v's sorted route
// list: port -1 deletes, a new (ip, dest) inserts, otherwise modifies.
func (e *Engine) applyChange(v int32, ip uint32, di int32, newPort int32) {
	rs := e.routes[v]
	i := sort.Search(len(rs), func(i int) bool {
		if rs[i].IP != ip {
			return rs[i].IP > ip
		}
		return rs[i].Dest >= di
	})
	present := i < len(rs) && rs[i].IP == ip && rs[i].Dest == di
	switch {
	case newPort < 0:
		if present {
			e.routes[v] = append(rs[:i], rs[i+1:]...)
			e.totalRoutes--
		}
	case present:
		rs[i].Port = newPort
	default:
		rs = append(rs, Route{})
		copy(rs[i+1:], rs[i:])
		rs[i] = Route{IP: ip, Port: newPort, Dest: di}
		e.routes[v] = rs
		e.totalRoutes++
	}
	if !e.touched[v] {
		e.touched[v] = true
		e.anyTouched = true
	}
}

// RoutesFor returns the device's desired route list, sorted by
// (IP, destination). The slice is owned by the engine: read-only, valid
// until the next Converge.
func (e *Engine) RoutesFor(device string) []Route {
	i, ok := e.nodeIdx[device]
	if !ok {
		return nil
	}
	return e.routes[i]
}

// DrainTouched returns the sorted names of devices whose desired routes
// changed since the previous drain, clearing the marks.
func (e *Engine) DrainTouched() []string {
	if !e.anyTouched {
		return nil
	}
	var out []string
	for _, v := range e.deviceList {
		if e.touched[v] {
			e.touched[v] = false
			out = append(out, e.nodes[v].name)
		}
	}
	e.anyTouched = false
	sort.Strings(out)
	return out
}

// TotalRoutes returns the number of desired entries across all devices.
func (e *Engine) TotalRoutes() int { return e.totalRoutes }
