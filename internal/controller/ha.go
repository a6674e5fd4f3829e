package controller

// HA glue (DESIGN.md §15): couples the controller's durable log — the
// audit chain — to a cluster.HAGroup replica set, and turns replica
// activation into the executor's freeze/recover failover protocol. The
// replicas themselves (election, leases, replication transport) live in
// internal/controller/cluster; this file is the tap on one side and the
// takeover choreography on the other.

import (
	"encoding/json"
	"fmt"

	"flexnet/internal/audit"
	"flexnet/internal/controller/cluster"
	"flexnet/internal/netsim"
	"flexnet/internal/telemetry"
)

// haMetrics are the ha.* instruments, created when HA is enabled (they
// never exist in non-HA runs, keeping those snapshots unchanged).
type haMetrics struct {
	heartbeats *telemetry.Counter
	elections  *telemetry.Counter
	syncs      *telemetry.Counter
	backlog    *telemetry.Counter
	stepdowns  *telemetry.Counter
	failovers  *telemetry.Counter
	kills      *telemetry.Counter
	resumed    *telemetry.Counter
	rolled     *telemetry.Counter
	failoverNs *telemetry.Histogram
}

// HA manages the controller's replica set.
type HA struct {
	c *Controller
	g *cluster.HAGroup

	activeID    int
	killedAt    netsim.Time
	killPending bool
	// base is the audit chain as it stood at enable time, the state every
	// replica boots from; the replicated log carries each record after it.
	base []audit.Record
	// buffered holds the payloads appended while no replica was serving
	// (the window between a leader kill and the next activation); the new
	// leader flushes them into the log before its failover marker.
	buffered [][]byte
	lastErr  error
	met      haMetrics

	// FailoverNs records each completed failover's duration — leader
	// kill to standby activation — in order, the same way Healer.MTTRs
	// records recoveries. The chaos soak bounds every entry.
	FailoverNs []uint64
}

// EnableHA attaches a replica group of n members to the controller and
// starts replicating its durable log. Idempotent: a second call returns
// the existing group. Replica 0 boots as the active leader.
func (c *Controller) EnableHA(n int, cfg cluster.HAConfig) *HA {
	if c.ha != nil {
		return c.ha
	}
	h := &HA{c: c, g: cluster.NewHA(c.fab.Sim, n, cfg)}
	met := c.fab.Metrics
	h.met = haMetrics{
		heartbeats: met.Counter("ha.heartbeats"),
		elections:  met.Counter("ha.elections"),
		syncs:      met.Counter("ha.syncs"),
		backlog:    met.Counter("ha.backlog_replayed"),
		stepdowns:  met.Counter("ha.stepdowns"),
		failovers:  met.Counter("ha.failovers"),
		kills:      met.Counter("ha.leader_kills"),
		resumed:    met.Counter("ha.plans_resumed"),
		rolled:     met.Counter("ha.plans_rolled_back"),
		failoverNs: met.Histogram("ha.failover_ns"),
	}
	// Bootstrap state transfer: every replica starts from the chain as it
	// stands at enable time, and every audit append from here on becomes
	// one replicated log record.
	h.base = c.audit.Records()
	c.audit.OnAppendRecord(func(r audit.Record) { h.append(haPayload(r)) })
	h.g.OnActivate = h.activate
	h.g.OnEvent = func(kind string, n uint64) {
		switch kind {
		case "heartbeat":
			h.met.heartbeats.Inc()
		case "election":
			h.met.elections.Inc()
		case "sync":
			h.met.syncs.Inc()
		case "backlog":
			h.met.backlog.Add(n)
		case "stepdown":
			h.met.stepdowns.Inc()
		}
	}
	c.ha = h
	return h
}

// HA returns the controller's replica manager, or nil when HA is off.
func (c *Controller) HA() *HA { return c.ha }

// LastErr returns the most recent takeover verification error (a
// replicated chain that failed audit.VerifyRecords), or nil.
func (h *HA) LastErr() error { return h.lastErr }

// append replicates one durable-log record through the active replica.
// With no replica serving (mid-failover) the record is buffered and
// flushed by the next leader, so the replicated log never drops events.
func (h *HA) append(payload []byte) {
	if err := h.g.Append(h.activeID, payload); err != nil {
		h.buffered = append(h.buffered, payload)
	}
}

// verifyChain decodes a replica's copy of the log onto the enable-time
// chain and verifies the whole hash chain: the new leader's proof that
// it converged on the dead leader's history.
func (h *HA) verifyChain(replica int) error {
	log := h.g.Replica(replica).Log()
	chain := make([]audit.Record, len(h.base), len(h.base)+len(log))
	copy(chain, h.base)
	for _, rec := range log {
		var r audit.Record
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("controller: replicated record %d: %w", rec.Seq, err)
		}
		chain = append(chain, r)
	}
	return audit.VerifyRecords(chain)
}

// activate is the takeover choreography (DESIGN.md §15.3): runs when a
// replica wins an election with its backlog fully replayed. It verifies
// the replicated chain, flushes any appends buffered during the
// leaderless window, appends the failover marker, and drives the
// executor's Recover — resuming plans past their commit instant and
// rolling back the rest.
func (h *HA) activate(replica int, term uint64) {
	h.met.failovers.Inc()
	if h.killPending {
		h.killPending = false
		d := h.c.fab.Sim.Now() - h.killedAt
		h.met.failoverNs.Observe(int64(d))
		h.FailoverNs = append(h.FailoverNs, uint64(d))
	}
	h.activeID = replica
	if err := h.verifyChain(replica); err != nil {
		h.lastErr = err
		h.c.fab.Metrics.Counter("ha.chain_mismatch").Inc()
	}
	buffered := h.buffered
	h.buffered = nil
	for _, b := range buffered {
		h.append(b)
	}
	h.c.audit.Append(audit.Record{
		Kind:  "failover",
		Label: fmt.Sprintf("replica-%d term-%d", replica, term),
	})
	resumed, rolled := h.c.exec.Recover()
	if resumed > 0 {
		h.met.resumed.Add(uint64(resumed))
	}
	if rolled > 0 {
		h.met.rolled.Add(uint64(rolled))
	}
}

// KillActive crashes the serving leader and freezes the executor — the
// leader-kill fault (internal/faults KindLeaderKill). It returns the
// killed replica's ID, or ok=false when no replica is serving.
func (h *HA) KillActive() (int, bool) {
	rep := h.g.Active()
	if rep == nil {
		return -1, false
	}
	h.killedAt = h.c.fab.Sim.Now()
	h.killPending = true
	h.met.kills.Inc()
	rep.Kill()
	h.c.exec.Freeze()
	return rep.ID(), true
}

// ReviveReplica restarts a crashed replica as a standby; it rejoins and
// replays the backlog it missed. Out-of-range IDs are ignored.
func (h *HA) ReviveReplica(id int) {
	if id >= 0 && id < h.g.Size() {
		h.g.Replica(id).Revive()
	}
}

// Failover is the operator-initiated drill (flexctl ha failover): kill
// the serving leader, let the standbys elect, and revive the old leader
// as a standby two election timeouts later. Returns the killed ID.
func (h *HA) Failover() (int, error) {
	id, ok := h.KillActive()
	if !ok {
		return -1, fmt.Errorf("controller: no serving leader to fail over")
	}
	h.c.fab.Sim.After(2*cluster.ElectionMaxNs, func() {
		h.ReviveReplica(id)
	})
	return id, nil
}

// HAReplicaStatus is one replica's row in ha-status output.
type HAReplicaStatus struct {
	ID      int    `json:"id"`
	Role    string `json:"role"`
	Alive   bool   `json:"alive"`
	Serving bool   `json:"serving"`
	Term    uint64 `json:"term"`
	Known   uint64 `json:"known"`
}

// HAStatus is the cluster view served by `flexnetd ha-status` and
// `flexctl ha status` (README "HA operations runbook" documents the
// fields).
type HAStatus struct {
	Enabled   bool              `json:"enabled"`
	Active    int               `json:"active"` // -1 while failing over
	LogLen    uint64            `json:"log_len"`
	Frozen    bool              `json:"frozen"`
	Failovers uint64            `json:"failovers"`
	Inflight  []string          `json:"inflight,omitempty"`
	Replicas  []HAReplicaStatus `json:"replicas"`
}

// Status snapshots the replica set.
func (h *HA) Status() HAStatus {
	st := HAStatus{
		Enabled:   true,
		Active:    -1,
		LogLen:    h.g.LogLen(),
		Frozen:    h.c.exec.Frozen(),
		Failovers: h.met.failovers.Value(),
		Inflight:  h.c.exec.Inflight(),
	}
	if rep := h.g.Active(); rep != nil {
		st.Active = rep.ID()
	}
	for i := 0; i < h.g.Size(); i++ {
		rep := h.g.Replica(i)
		st.Replicas = append(st.Replicas, HAReplicaStatus{
			ID:      rep.ID(),
			Role:    rep.Role(),
			Alive:   rep.Alive(),
			Serving: rep.Serving(),
			Term:    rep.Term(),
			Known:   rep.Known(),
		})
	}
	return st
}
