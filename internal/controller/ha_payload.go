//go:build !ha_payload_mutant

package controller

import (
	"encoding/json"

	"flexnet/internal/audit"
)

// haPayload encodes one audit record as its replicated log payload.
// A build with the ha_payload_mutant tag swaps in ha_payload_mutant.go,
// whose payloads lose their chain link, so the takeover check can be
// seen to fail (make mutants).
func haPayload(r audit.Record) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // Record marshals by construction (see audit.hashOf)
	}
	return b
}
