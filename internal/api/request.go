package api

import "flexnet/internal/faults"

// Request is one management-plane call: the JSON object flexnetd
// decodes from each request line and flexctl encodes from a
// subcommand's flags. An op reads only the fields it needs; empty
// fields are left off the wire.
type Request struct {
	Op      string   `json:"op"`
	URI     string   `json:"uri,omitempty"`
	App     string   `json:"app,omitempty"` // builtin app name
	Args    []uint64 `json:"args,omitempty"`
	Segment string   `json:"segment,omitempty"`
	Device  string   `json:"device,omitempty"`
	Tenant  string   `json:"tenant,omitempty"`
	Path    []string `json:"path,omitempty"`
	// Traffic parameters.
	SrcHost string  `json:"src_host,omitempty"`
	DstIP   string  `json:"dst_ip,omitempty"`
	PPS     float64 `json:"pps,omitempty"`
	// Run duration in milliseconds.
	Millis int64 `json:"millis,omitempty"`
	// Migration mode.
	DataPlane bool `json:"data_plane,omitempty"`
	// Plan selects a plan ID for the "trace" op ("" = most recent).
	Plan string `json:"plan,omitempty"`
	// DryRun validates the operation's change plan and returns its steps
	// and cost estimate without mutating the network.
	DryRun bool `json:"dry_run,omitempty"`
	// Faults carries a fault schedule for the "faults" op (seed +
	// events; see internal/faults for the event format).
	Faults *faults.Schedule `json:"faults,omitempty"`
	// Spec is the declarative spec document (YAML or JSON) for the
	// spec-apply and spec-diff ops.
	Spec string `json:"spec,omitempty"`
	// Limit bounds list-shaped replies (the audit op's tail length).
	Limit int `json:"limit,omitempty"`
}

// Response is one reply line. Data is the op's payload; flexctl decodes
// it by pointing Data at a json.RawMessage before unmarshalling.
type Response struct {
	OK    bool        `json:"ok"`
	Error string      `json:"error,omitempty"`
	Data  interface{} `json:"data,omitempty"`
}
