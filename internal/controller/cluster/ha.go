// Package cluster implements the distributed controller of §3.4: "For
// large networks, logically centralized controllers are realized in
// physically distributed nodes, which brings classic distributed systems
// concerns on consensus and availability."
//
// It is an active/standby replica group (DESIGN.md §15) whose members
// coordinate over dRPC — heartbeats with seeded jitter, term-numbered
// leader election under a single-writer lease, and continuous
// replication of the controller's durable log (the audit chain) with
// backlog replay for standbys that fall behind. The group replicates the
// *observed mutation log*, so a standby takes over the one live fabric
// without re-running operations. The log is one store the whole group
// shares; a replica's copy of it is that store up to its watermark.
//
// The wire pattern follows osvbng's pkg/ha: the active replica pushes
// each appended record to every standby (sync), heartbeats advertise
// the log head, and a receiver that discovers it is behind pulls the
// missing backlog before serving. Votes, syncs, and fetches ride
// drpc.CallOpt — per-attempt timeouts, capped backoff, at-most-once
// completion — so replication survives the same lossy control channels
// the fault plane injects (internal/faults).
//
// Everything runs on the simulator's event loop. Election jitter and
// retry jitter come from seeds independent of the simulation's rand
// stream, so enabling HA never perturbs traffic generation: a fabric
// with HA on produces byte-identical non-ha.* telemetry. DESIGN.md §10
// specifies the failure model this participates in; E12 and E20 (§3)
// measure failover.
package cluster

import (
	"fmt"
	"math/rand"

	"flexnet/internal/drpc"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// HA method IDs on drpc.ServiceHA.
const (
	// HAHeartbeat: args = {term, leader log head, leader id};
	// reply = {term, receiver's known head, 0}.
	HAHeartbeat uint64 = iota
	// HAVote: args = {term, candidate log head, candidate id};
	// reply = {granted (1/0), voter term, 0}.
	HAVote
	// HASync announces one appended record: args = {seq, 0, leader id};
	// reply = {receiver's known head, 0, 0}.
	HASync
	// HAFetch asks the leader how far the log extends so the caller can
	// replay its backlog: args = {first missing seq, 0, caller id};
	// reply = {log head, 0, 0}.
	HAFetch
)

// SyncRecord is one entry of the replicated controller log, identified
// by a 1-based sequence number. Payload is opaque to the group (the
// controller layer encodes audit records as canonical JSON).
type SyncRecord struct {
	Seq     uint64
	Payload []byte
}

// The group's timing. The replica mesh is simulated and private to the
// controller, so these are fixed model parameters, not settings.
const (
	// delayNs is the one-way message delay between replicas.
	delayNs = 2_000_000
	// heartbeatNs is the active replica's heartbeat period.
	heartbeatNs = 20_000_000
	// electionMinNs and ElectionMaxNs bound the randomized election
	// timeout: a standby that has not heard a heartbeat for a jittered
	// duration in this range starts an election.
	electionMinNs = 120_000_000
	ElectionMaxNs = 2 * electionMinNs
	// leaseNs is how long a majority-acked heartbeat round entitles the
	// active replica to keep serving. Because a standby refuses to vote
	// within electionMinNs of hearing the leader, a new leader can only
	// exist after the old one's lease has lapsed — two replicas never
	// serve at once.
	leaseNs = electionMinNs - 2*delayNs
	// baseIP numbers the replicas' mesh routers (172.31.0.1, .2, …).
	baseIP = 0xAC1F0001
)

// HAConfig configures the replica group.
type HAConfig struct {
	// Seed drives election jitter, independent of the simulation seed
	// (0 means 1).
	Seed int64
}

// role is a replica's election role.
type role uint8

const (
	follower role = iota
	candidate
	leader
)

func (r role) String() string {
	switch r {
	case follower:
		return "follower"
	case candidate:
		return "candidate"
	case leader:
		return "leader"
	default:
		return "?"
	}
}

// HAGroup is a set of controller replicas on one simulator, connected
// by a private dRPC mesh (controller network, not the data fabric).
type HAGroup struct {
	sim  *netsim.Sim
	reps []*HAReplica
	byIP map[uint32]*HAReplica
	seq  uint64
	rng  *rand.Rand

	// store is the durable replicated log: the active replica appends,
	// standbys learn entries through sync pushes and backlog fetches.
	// A replica's copy of the log is store[:known].
	store []SyncRecord

	// partition, when non-nil, reports whether the mesh drops messages
	// between two replicas (split-brain tests).
	partition func(a, b int) bool

	// OnActivate fires when a replica wins an election AND has replayed
	// its backlog to the log head — the moment it may serve.
	OnActivate func(replica int, term uint64)
	// OnEvent counts protocol activity: "heartbeat", "election", "sync",
	// "backlog" (n = records replayed), "stepdown".
	OnEvent func(kind string, n uint64)
}

// NewHA creates a replica group of n ≥ 1 members. Replica 0 boots as
// the active leader at term 1; the rest are standbys.
func NewHA(sim *netsim.Sim, n int, cfg HAConfig) *HAGroup {
	if n < 1 {
		n = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	g := &HAGroup{
		sim:  sim,
		byIP: map[uint32]*HAReplica{},
		rng:  rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407)),
	}
	for i := 0; i < n; i++ {
		rep := &HAReplica{id: i, g: g, alive: true, votedFor: -1}
		rep.router = drpc.NewRouter(baseIP+uint32(i), &g.seq, sim.Packets(), g.transportFor(rep),
			func(d uint64, fn func()) { sim.After(netsim.Time(d), fn) })
		if err := rep.router.Register(drpc.ServiceHA, rep.handle); err != nil {
			panic(err) // fresh router; cannot happen
		}
		g.reps = append(g.reps, rep)
		g.byIP[rep.router.IP] = rep
	}
	boot := g.reps[0]
	boot.role = leader
	boot.term = 1
	boot.serving = true
	boot.leaseUntil = sim.Now() + leaseNs
	boot.heartbeatLoop()
	for _, rep := range g.reps[1:] {
		rep.term = 1
		rep.lastHeard = sim.Now()
		rep.resetElectionTimer()
	}
	return g
}

// transportFor builds one replica's mesh transport: decode the packet's
// destination, honour partitions and liveness, and deliver after the
// one-way delay. Either way the packet then goes back to the
// simulator's pool.
func (g *HAGroup) transportFor(from *HAReplica) drpc.Transport {
	return func(p *packet.Packet) {
		to := g.byIP[uint32(p.Field("ipv4.dst"))]
		if !from.alive || to == nil || (g.partition != nil && g.partition(from.id, to.id)) {
			g.sim.Packets().Release(p)
			return
		}
		g.sim.After(delayNs, func() {
			if to.alive {
				to.router.Deliver(p)
			}
			g.sim.Packets().Release(p)
		})
	}
}

// SetPartition splits the mesh: messages between replicas in different
// groups are dropped. Pass nil to heal. Replicas not named fall in an
// implicit last group.
func (g *HAGroup) SetPartition(groups [][]int) {
	if groups == nil {
		g.partition = nil
		return
	}
	side := make(map[int]int, len(g.reps))
	for gi, members := range groups {
		for _, id := range members {
			side[id] = gi + 1
		}
	}
	g.partition = func(a, b int) bool { return side[a] != side[b] }
}

// Size returns the number of replicas.
func (g *HAGroup) Size() int { return len(g.reps) }

// Replica returns replica i.
func (g *HAGroup) Replica(i int) *HAReplica { return g.reps[i] }

// LogLen returns the replicated log's head sequence number.
func (g *HAGroup) LogLen() uint64 { return uint64(len(g.store)) }

// Active returns the serving leader, or nil while failing over.
func (g *HAGroup) Active() *HAReplica {
	for _, rep := range g.reps {
		if rep.Serving() {
			return rep
		}
	}
	return nil
}

// ServingCount counts replicas currently entitled to serve. The lease
// rule keeps this ≤ 1 at every simulated instant; the split-brain test
// asserts exactly that.
func (g *HAGroup) ServingCount() int {
	n := 0
	for _, rep := range g.reps {
		if rep.Serving() {
			n++
		}
	}
	return n
}

// Append adds one record to the replicated log on behalf of replica
// `from` (the active leader) and pushes it to every peer. The appender's
// watermark moves to the new head at once; its peers' follow the push.
// The log keeps payload: the caller must not modify it afterwards.
func (g *HAGroup) Append(from int, payload []byte) error {
	rep := g.reps[from]
	if !rep.alive || rep.role != leader {
		return fmt.Errorf("cluster: replica %d is not the active leader", from)
	}
	rec := SyncRecord{Seq: uint64(len(g.store)) + 1, Payload: payload}
	g.store = append(g.store, rec)
	rep.known = rec.Seq
	g.event("sync", 1)
	for _, peer := range g.reps {
		if peer.id == rep.id {
			continue
		}
		rep.router.CallOpt(peer.router.IP, drpc.ServiceHA, HASync,
			[3]uint64{rec.Seq, 0, uint64(rep.id)}, g.callOpts(2), nil)
	}
	return nil
}

func (g *HAGroup) event(kind string, n uint64) {
	if g.OnEvent != nil {
		g.OnEvent(kind, n)
	}
}

// callOpts builds the reliable-call policy used for votes, syncs, and
// fetches: per-attempt deadline of one RTT plus slack, capped backoff.
func (g *HAGroup) callOpts(attempts int) drpc.CallOpts {
	return drpc.CallOpts{
		TimeoutNs:    2*delayNs + 1_000_000,
		Attempts:     attempts,
		BackoffNs:    delayNs,
		MaxBackoffNs: 4 * delayNs,
	}
}

// HAReplica is one member of the group.
type HAReplica struct {
	id     int
	g      *HAGroup
	router *drpc.Router

	alive    bool
	role     role
	term     uint64
	votedFor int
	votes    int

	// known is this replica's log watermark: its copy of the replicated
	// log is the group's store up to here.
	known uint64

	serving    bool
	leaseUntil netsim.Time
	lastHeard  netsim.Time
	missed     int
	fetching   bool
	timerEpoch uint64
}

// ID returns the replica index.
func (rep *HAReplica) ID() int { return rep.id }

// Term returns the replica's current term.
func (rep *HAReplica) Term() uint64 { return rep.term }

// Role returns "leader", "candidate" or "follower".
func (rep *HAReplica) Role() string { return rep.role.String() }

// Alive reports process liveness.
func (rep *HAReplica) Alive() bool { return rep.alive }

// Known returns the replica's log head watermark.
func (rep *HAReplica) Known() uint64 { return rep.known }

// Log returns the replica's copy of the replicated log, records 1..Known
// in order. The slice is shared with the group; do not modify it.
func (rep *HAReplica) Log() []SyncRecord { return rep.g.store[:rep.known] }

// Serving reports whether this replica is currently entitled to act as
// the controller: it is the leader AND holds an unexpired majority
// lease. A partitioned leader loses this within leaseNs even though it
// still believes itself leader.
func (rep *HAReplica) Serving() bool {
	return rep.alive && rep.role == leader && rep.serving && rep.g.sim.Now() <= rep.leaseUntil
}

// Kill crashes the replica: timers die, in-flight messages to and from
// it are dropped.
func (rep *HAReplica) Kill() {
	rep.alive = false
	rep.serving = false
	rep.timerEpoch++
}

// Revive restarts a crashed replica as a standby. Its log watermarks
// survive (restart with durable state); the backlog it missed while
// down is pulled when the next heartbeat advertises a newer head.
func (rep *HAReplica) Revive() {
	if rep.alive {
		return
	}
	rep.alive = true
	rep.role = follower
	rep.votedFor = -1
	rep.votes = 0
	rep.missed = 0
	rep.lastHeard = rep.g.sim.Now()
	rep.resetElectionTimer()
}

// fetchBacklog pulls the log head from the active leader and replays
// everything missing — the osvbng sync-receiver catch-up path.
func (rep *HAReplica) fetchBacklog(leaderIP uint32) {
	if rep.fetching {
		return
	}
	rep.fetching = true
	rep.router.CallOpt(leaderIP, drpc.ServiceHA, HAFetch,
		[3]uint64{rep.known + 1, 0, uint64(rep.id)}, rep.g.callOpts(3),
		func(m drpc.Message, ok bool, err error) {
			rep.fetching = false
			if !rep.alive || !ok || err != nil {
				return
			}
			if head := m.Args[0]; head > rep.known {
				n := head - rep.known
				rep.known = head
				rep.g.event("backlog", n)
			}
		})
}

func (rep *HAReplica) resetElectionTimer() {
	rep.timerEpoch++
	epoch := rep.timerEpoch
	g := rep.g
	d := electionMinNs + netsim.Time(g.rng.Int63n(ElectionMaxNs-electionMinNs))
	g.sim.After(d, func() {
		if rep.alive && rep.timerEpoch == epoch && rep.role != leader {
			rep.startElection()
		}
	})
}

func (rep *HAReplica) startElection() {
	g := rep.g
	rep.role = candidate
	rep.term++
	rep.votedFor = rep.id
	rep.votes = 1
	term := rep.term
	g.event("election", 1)
	for _, peer := range g.reps {
		if peer.id == rep.id {
			continue
		}
		rep.router.CallOpt(peer.router.IP, drpc.ServiceHA, HAVote,
			[3]uint64{term, rep.known, uint64(rep.id)}, g.callOpts(2),
			func(m drpc.Message, ok bool, err error) {
				if !rep.alive || err != nil || !ok {
					return
				}
				if m.Args[1] > rep.term {
					rep.stepDown(m.Args[1])
					return
				}
				if rep.role != candidate || rep.term != term || m.Args[0] != 1 {
					return
				}
				rep.votes++
				if rep.votes >= len(g.reps)/2+1 {
					rep.becomeActive()
				}
			})
	}
	rep.resetElectionTimer()
}

// becomeActive promotes an election winner. Before it may serve it must
// replay any backlog it has not learned — the new leader's first duty
// is to catch its copy up to the log head, so activation (and the
// OnActivate failover hook) always observes known == LogLen.
func (rep *HAReplica) becomeActive() {
	g := rep.g
	rep.role = leader
	if rep.known < uint64(len(g.store)) {
		n := uint64(len(g.store)) - rep.known
		rep.known = uint64(len(g.store))
		g.event("backlog", n)
	}
	rep.serving = true
	rep.missed = 0
	rep.leaseUntil = g.sim.Now() + leaseNs
	if g.OnActivate != nil {
		g.OnActivate(rep.id, rep.term)
	}
	rep.heartbeatLoop()
}

func (rep *HAReplica) stepDown(term uint64) {
	if rep.role == leader {
		rep.g.event("stepdown", 1)
	}
	rep.term = term
	rep.role = follower
	rep.serving = false
	rep.votedFor = -1
	rep.votes = 0
	rep.missed = 0
	rep.resetElectionTimer()
}

// heartbeatLoop drives the active replica: each period it pushes a
// heartbeat (advertising the log head) to every peer and renews its
// serving lease when a majority acknowledges. Three consecutive rounds
// without a majority — a partition, or the peers are gone — and the
// leader steps down rather than serve on stale authority.
func (rep *HAReplica) heartbeatLoop() {
	g := rep.g
	rep.timerEpoch++
	epoch := rep.timerEpoch
	var tick func()
	tick = func() {
		if !rep.alive || rep.timerEpoch != epoch || rep.role != leader {
			return
		}
		g.event("heartbeat", 1)
		term := rep.term
		acks := 1 // self
		renewed := false
		for _, peer := range g.reps {
			if peer.id == rep.id {
				continue
			}
			rep.router.CallOpt(peer.router.IP, drpc.ServiceHA, HAHeartbeat,
				[3]uint64{term, rep.known, uint64(rep.id)},
				drpc.CallOpts{TimeoutNs: heartbeatNs - 2_000_000, Attempts: 1},
				func(m drpc.Message, ok bool, err error) {
					if !rep.alive || rep.timerEpoch != epoch || err != nil {
						return
					}
					if m.Args[0] > rep.term {
						// A peer answered from a higher term: a rejoining
						// straggler that inflated its term while cut off.
						// Adopt the term WITHOUT giving up leadership —
						// vote stickiness protects the lease, and the next
						// heartbeat round carries the higher term, folding
						// the straggler back in as a follower.
						rep.term = m.Args[0]
						return
					}
					if !ok {
						return
					}
					acks++
					if !renewed && acks >= len(g.reps)/2+1 {
						renewed = true
						rep.missed = 0
						rep.leaseUntil = g.sim.Now() + leaseNs
					}
				})
		}
		g.sim.After(heartbeatNs, func() {
			if rep.alive && rep.timerEpoch == epoch && rep.role == leader && !renewed {
				rep.missed++
				if rep.missed >= 3 {
					rep.stepDown(rep.term)
					return
				}
			}
			tick()
		})
	}
	tick()
}

// handle serves the replica's ServiceHA endpoint.
func (rep *HAReplica) handle(from uint32, m drpc.Message) *drpc.Message {
	g := rep.g
	switch m.Method {
	case HAHeartbeat:
		term, head := m.Args[0], m.Args[1]
		if term < rep.term {
			return &drpc.Message{Flags: drpc.FlagError, Args: [3]uint64{rep.term, rep.known, 0}}
		}
		if term > rep.term || rep.role != follower {
			rep.stepDown(term)
		}
		rep.term = term
		rep.lastHeard = g.sim.Now()
		rep.resetElectionTimer()
		if head > rep.known {
			rep.fetchBacklog(from)
		}
		return &drpc.Message{Args: [3]uint64{rep.term, rep.known, 0}}

	case HAVote:
		term, head := m.Args[0], m.Args[1]
		cand := int(m.Args[2])
		// Leader stickiness comes first and does NOT adopt the
		// candidate's term: while this replica is itself serving under
		// its lease, or has heard a live leader within the minimum
		// election timeout, the vote is refused outright. A partitioned
		// straggler that inflated its term through futile elections
		// therefore cannot depose a healthy leader when the mesh heals.
		if rep.Serving() || g.sim.Now()-rep.lastHeard < electionMinNs {
			return &drpc.Message{Args: [3]uint64{0, rep.term, 0}}
		}
		if term > rep.term {
			rep.stepDown(term)
		}
		grant := uint64(0)
		// Grant iff: same term, no conflicting vote, and the candidate's
		// log is at least as complete as ours.
		if term == rep.term &&
			(rep.votedFor == -1 || rep.votedFor == cand) &&
			head >= rep.known {
			grant = 1
			rep.votedFor = cand
			rep.resetElectionTimer()
		}
		return &drpc.Message{Args: [3]uint64{grant, rep.term, 0}}

	case HASync:
		seq := m.Args[0]
		switch {
		case seq == rep.known+1:
			rep.known = seq
		case seq > rep.known:
			// Out of order — a push was lost or delayed. Pull the gap.
			rep.fetchBacklog(from)
		}
		return &drpc.Message{Args: [3]uint64{rep.known, 0, 0}}

	case HAFetch:
		if rep.role != leader {
			return &drpc.Message{Flags: drpc.FlagError, Args: [3]uint64{rep.known, 0, 0}}
		}
		return &drpc.Message{Args: [3]uint64{rep.known, 0, 0}}
	}
	return &drpc.Message{Flags: drpc.FlagError}
}
