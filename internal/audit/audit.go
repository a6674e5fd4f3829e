// Package audit implements FlexNet's append-only control-plane audit
// trail.
//
// Every control-plane mutation — every executed ChangePlan (committed,
// degraded or rolled back) and every tenant add/remove — appends one
// Record. Records are hash-chained: each carries the SHA-256 of its
// own canonical JSON with the previous record's hash folded in, so any
// retroactive edit breaks Verify at the tampered link. The chain is
// the replay log the HA standbys replicate (DESIGN.md §15.2): Replay
// folds the records into the controller-level intent state (tenants +
// app replica placements), which tests assert byte-identical to the
// live controller's own rendering.
//
// The log is in-memory and deterministic: record timestamps come from
// the simulated clock, so the same seed yields the same chain,
// byte-for-byte, across runs and worker counts. See DESIGN.md §14.3
// for the record format and replay semantics.
package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// StepRecord is one plan step's outcome in the trail.
type StepRecord struct {
	Op       string `json:"op"`
	Device   string `json:"device,omitempty"`
	Src      string `json:"src,omitempty"`
	Instance string `json:"instance,omitempty"`
	Status   string `json:"status"`
}

// Record is one audited control-plane mutation.
type Record struct {
	// Seq is the record's position in the chain (0 = genesis).
	Seq uint64 `json:"seq"`
	// AtNs is the simulated-clock timestamp.
	AtNs int64 `json:"at_ns"`
	// Kind is "genesis", "plan", "tenant-add", "tenant-remove",
	// "spec-apply" or "failover" (a marker the new leader appends after
	// a controller failover, DESIGN.md §15.4).
	Kind string `json:"kind"`

	// Plan fields (Kind "plan").
	PlanID  string       `json:"plan_id,omitempty"`
	Label   string       `json:"label,omitempty"`
	Outcome string       `json:"outcome,omitempty"`
	Steps   []StepRecord `json:"steps,omitempty"`

	// Origin attributes the mutation: "" for imperative API calls,
	// "spec:<version>" for declarative applies, "heal" for the
	// self-healer's reconciliation plans.
	Origin string `json:"origin,omitempty"`

	// Tenant names the tenant for tenant-add/tenant-remove records;
	// SpecVersion labels spec-apply records.
	Tenant      string `json:"tenant,omitempty"`
	SpecVersion string `json:"spec_version,omitempty"`

	// Prev is the previous record's hash; Hash is SHA-256 over this
	// record's canonical JSON with Hash itself blanked.
	Prev string `json:"prev"`
	Hash string `json:"hash"`
}

// hashOf computes the record's chain hash: SHA-256 over the canonical
// JSON encoding with the Hash field empty. Canonical means the fixed
// struct field order above — Go's encoding/json emits struct fields in
// declaration order, so the encoding is stable.
func hashOf(r Record) string {
	r.Hash = ""
	b, err := json.Marshal(r)
	if err != nil {
		// Record contains only marshalable fields; cannot happen.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Log is the append-only chain.
type Log struct {
	mu      sync.Mutex
	records []Record
	now     func() int64
	// onRecord, when set, receives each appended record (outside the
	// lock) — the HA layer replicates the chain to standbys from here.
	onRecord func(Record)
}

// NewLog starts a chain with a genesis record stamped by the given
// clock (simulated nanoseconds).
func NewLog(now func() int64) *Log {
	l := &Log{now: now}
	g := Record{Seq: 0, AtNs: now(), Kind: "genesis", Prev: ""}
	g.Hash = hashOf(g)
	l.records = append(l.records, g)
	return l
}

// OnAppendRecord registers a callback receiving every appended record —
// the HA replication tap (DESIGN.md §15.2).
func (l *Log) OnAppendRecord(fn func(Record)) {
	l.mu.Lock()
	l.onRecord = fn
	l.mu.Unlock()
}

// Append stamps, sequences, chains and stores the record. The caller
// fills the Kind-specific fields; Seq, AtNs, Prev and Hash are owned by
// the log.
func (l *Log) Append(r Record) Record {
	l.mu.Lock()
	prev := l.records[len(l.records)-1]
	r.Seq = prev.Seq + 1
	r.AtNs = l.now()
	r.Prev = prev.Hash
	r.Hash = hashOf(r)
	l.records = append(l.records, r)
	fn := l.onRecord
	l.mu.Unlock()
	if fn != nil {
		fn(r)
	}
	return r
}

// Records returns a copy of the chain.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.records...)
}

// Len returns the chain length including genesis.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Head returns the latest record's hash.
func (l *Log) Head() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records[len(l.records)-1].Hash
}

// Verify walks the chain recomputing every hash and link. It returns
// the first broken record's error, or nil for an intact chain.
func (l *Log) Verify() error {
	return VerifyRecords(l.Records())
}

// VerifyRecords checks an exported chain (e.g. shipped over dRPC).
func VerifyRecords(records []Record) error {
	if len(records) == 0 {
		return fmt.Errorf("audit: empty chain (no genesis)")
	}
	if records[0].Kind != "genesis" || records[0].Seq != 0 || records[0].Prev != "" {
		return fmt.Errorf("audit: record 0 is not a genesis record")
	}
	prev := Record{}
	for i, r := range records {
		if i > 0 {
			if r.Seq != prev.Seq+1 {
				return fmt.Errorf("audit: record %d: sequence gap (%d after %d)", i, r.Seq, prev.Seq)
			}
			if r.Prev != prev.Hash {
				return fmt.Errorf("audit: record %d: chain broken (prev hash mismatch)", i)
			}
		}
		if got := hashOf(r); got != r.Hash {
			return fmt.Errorf("audit: record %d: hash mismatch (tampered?)", i)
		}
		prev = r
	}
	return nil
}
