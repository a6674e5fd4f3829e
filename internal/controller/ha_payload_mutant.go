//go:build ha_payload_mutant

package controller

import (
	"encoding/json"

	"flexnet/internal/audit"
)

// haPayload is the deliberately broken twin of ha_payload.go: it blanks
// each record's Prev link before encoding, so a replica's copy of the
// chain no longer verifies and a takeover must report it through
// HA.LastErr. Never ship a build with this tag.
func haPayload(r audit.Record) []byte {
	r.Prev = ""
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return b
}
