package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"flexnet/internal/spec"
)

// ctlOp is one generated control-plane operation, in a form both the
// socket client (ctl_storm) and the in-process replay (the control
// probes) can execute.
type ctlOp struct {
	Kind    string // deploy, deploy-dry-run, remove, scale-out, scale-in, migrate, spec-apply, spec-diff, tenant-add
	URI     string
	Tenant  string
	App     string // builtin kind
	Args    []uint64
	Segment string
	Device  string
	Path    []string
	Spec    []byte // rendered spec document (spec-apply, spec-diff)

	app *ctlApp // the model entry the op acts on
}

// mutating reports whether the op changes the network when it succeeds.
func (o *ctlOp) mutating() bool { return o.Kind != "deploy-dry-run" && o.Kind != "spec-diff" }

// ctlApp is the client's model of one deployed app.
type ctlApp struct {
	uri, tenant, kind, seg string
	args                   []uint64
	path                   string   // the one edge switch it was deployed on
	replicas               []string // primary first
}

// builtinKinds are the kinds the storm deploys, with the segment name
// flexnetd gives each and small arguments, so that no device ever runs
// out of room and every op succeeds.
var builtinKinds = []struct {
	kind, seg string
	args      []uint64
}{
	{"syn-defense", "syn", []uint64{256, 10}},
	{"heavy-hitter", "hh", []uint64{2, 128, 1000}},
	{"rate-limiter", "rl", []uint64{4, 1000000, 2000000}},
	{"firewall", "fw", []uint64{16, 128, 0}},
	{"l2", "l2", []uint64{32}},
	{"int", "int", []uint64{1}},
}

const (
	ctlTenants  = 8
	ctlPodEdges = 4 // k/2 edge switches per pod at k=8
	ctlMinApps  = 48
	ctlMaxApps  = 80
	ctlSpecApps = 6
	maxReplicas = 3
)

// ctlModel generates the storm's op sequence from a seed and tracks what
// the network must hold if every op so far succeeded. The sequence
// depends only on the seed: the daemon run and the in-process replay see
// the same list.
type ctlModel struct {
	rng     *rand.Rand
	edges   []string
	apps    []*ctlApp
	nextID  int
	specRev int  // spec revision applied last (0 or 1)
	specOn  bool // the spec-managed apps exist
	diffRev int  // revision the next spec-diff asks about
}

func newCtlModel(seed int64) *ctlModel {
	m := &ctlModel{rng: rand.New(rand.NewSource(seed))}
	for p := 0; p < 8; p++ {
		for e := 0; e < ctlPodEdges; e++ {
			m.edges = append(m.edges, fmt.Sprintf("p%d-e%d", p, e))
		}
	}
	return m
}

// setupOps is the fixed prefix every run starts with: the tenants and
// the first 48 apps.
func (m *ctlModel) setupOps() []*ctlOp {
	var ops []*ctlOp
	for t := 0; t < ctlTenants; t++ {
		ops = append(ops, &ctlOp{Kind: "tenant-add", Tenant: fmt.Sprintf("t%d", t)})
	}
	for i := 0; i < ctlMinApps; i++ {
		op := m.newDeploy(false)
		m.commit(op)
		ops = append(ops, op)
	}
	return ops
}

// liveApps is how many apps the daemon must report: the imperative
// population plus the spec-managed ones.
func (m *ctlModel) liveApps() int {
	n := len(m.apps)
	if m.specOn {
		n += ctlSpecApps
	}
	return n
}

func (m *ctlModel) newDeploy(dryRun bool) *ctlOp {
	k := builtinKinds[m.rng.Intn(len(builtinKinds))]
	tenant := fmt.Sprintf("t%d", m.rng.Intn(ctlTenants))
	edge := m.edges[m.rng.Intn(len(m.edges))]
	m.nextID++
	a := &ctlApp{
		uri: fmt.Sprintf("flexnet://%s/a%d", tenant, m.nextID), tenant: tenant,
		kind: k.kind, seg: k.seg, args: k.args, path: edge, replicas: []string{edge},
	}
	kind := "deploy"
	if dryRun {
		kind = "deploy-dry-run"
	}
	return &ctlOp{Kind: kind, URI: a.uri, Tenant: tenant, App: k.kind, Args: k.args, Path: []string{edge}, app: a}
}

// freeEdge picks an edge switch that holds no replica of a.
func (m *ctlModel) freeEdge(a *ctlApp) string {
	for {
		e := m.edges[m.rng.Intn(len(m.edges))]
		used := false
		for _, r := range a.replicas {
			used = used || r == e
		}
		if !used {
			return e
		}
	}
}

// next generates the storm's next op: deploy and remove about a quarter
// each (steered so the population stays between 48 and 80 apps), scale
// out/in 20 %, migrate 13 %, dry-run deploy 13 %, spec-apply and
// spec-diff 2 % each.
func (m *ctlModel) next() *ctlOp {
	pick := m.rng.Intn(100)
	switch {
	case pick < 50:
		// The further the population is above the middle of its band,
		// the likelier a remove.
		if m.rng.Intn(ctlMaxApps-ctlMinApps) >= len(m.apps)-ctlMinApps {
			return m.newDeploy(false)
		}
		a := m.apps[m.rng.Intn(len(m.apps))]
		return &ctlOp{Kind: "remove", URI: a.uri, app: a}
	case pick < 70:
		a := m.apps[m.rng.Intn(len(m.apps))]
		if len(a.replicas) == 1 || (len(a.replicas) < maxReplicas && m.rng.Intn(2) == 0) {
			return &ctlOp{Kind: "scale-out", URI: a.uri, Segment: a.seg, Device: m.freeEdge(a), app: a}
		}
		return &ctlOp{Kind: "scale-in", URI: a.uri, Segment: a.seg, Device: a.replicas[len(a.replicas)-1], app: a}
	case pick < 83:
		a := m.apps[m.rng.Intn(len(m.apps))]
		return &ctlOp{Kind: "migrate", URI: a.uri, Segment: a.seg, Device: m.freeEdge(a), app: a}
	case pick < 96:
		return m.newDeploy(true)
	case pick < 98:
		return &ctlOp{Kind: "spec-apply", Spec: m.renderSpec(1 - m.specRev)}
	default:
		m.diffRev = 1 - m.diffRev
		return &ctlOp{Kind: "spec-diff", Spec: m.renderSpec(m.diffRev)}
	}
}

// commit updates the model after op succeeded.
func (m *ctlModel) commit(op *ctlOp) {
	a := op.app
	switch op.Kind {
	case "deploy":
		m.apps = append(m.apps, a)
	case "remove":
		for i, x := range m.apps {
			if x == a {
				m.apps[i] = m.apps[len(m.apps)-1]
				m.apps = m.apps[:len(m.apps)-1]
				break
			}
		}
	case "scale-out":
		a.replicas = append(a.replicas, op.Device)
	case "scale-in":
		a.replicas = a.replicas[:len(a.replicas)-1]
	case "migrate":
		a.replicas[0] = op.Device
	case "spec-apply":
		m.specRev, m.specOn = 1-m.specRev, true
	}
}

// renderSpec writes the whole desired network as a spec document: the
// imperative population exactly as it stands (a spec names the whole
// network, and applying one deletes every app it leaves out) plus six
// spec-managed apps at revision rev. The two revisions differ in a
// table size and a replica count, so applying them in turn retunes and
// rescales those six apps and nothing else.
func (m *ctlModel) renderSpec(rev int) []byte {
	s := spec.Spec{Version: fmt.Sprintf("rev-%d", rev)}
	for t := 0; t < ctlTenants; t++ {
		s.Tenants = append(s.Tenants, spec.TenantSpec{Name: fmt.Sprintf("t%d", t)})
	}
	for _, a := range m.apps {
		s.Apps = append(s.Apps, spec.AppSpec{
			URI: a.uri, Tenant: a.tenant, Path: []string{a.path},
			Segments: []spec.SegmentSpec{{Name: a.seg, App: a.kind, Args: a.args, Scale: len(a.replicas)}},
		})
	}
	for i := 0; i < ctlSpecApps; i++ {
		s.Apps = append(s.Apps, spec.AppSpec{
			URI: fmt.Sprintf("flexnet://t%d/declared%d", i, i), Tenant: fmt.Sprintf("t%d", i),
			Path: []string{fmt.Sprintf("p%d-e0", i), fmt.Sprintf("p%d-e1", i)},
			Segments: []spec.SegmentSpec{{
				Name: "hh", App: "heavy-hitter", Args: []uint64{2, uint64(128 << rev), 1000}, Scale: 1 + rev,
			}},
		})
	}
	doc, err := json.Marshal(&s)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return doc
}
