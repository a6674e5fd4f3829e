package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Load parses a spec document. JSON documents (first non-space byte
// '{') decode directly; everything else goes through the YAML-subset
// parser and is rendered to JSON, so both formats share one schema, one
// decoder and identical type checking (decodeSpec). The returned spec
// is validated and normalized (tenants and apps in canonical order,
// default scale counts filled in).
func Load(data []byte) (*Spec, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("spec: empty document")
	}
	raw := trimmed
	if trimmed[0] != '{' {
		v, err := parseYAML(data)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		raw, err = json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	s, err := decodeSpec(raw)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.normalize()
	return s, nil
}

// LoadFile reads and parses a spec document from disk.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Canonical emits the normalized spec as indented JSON with a trailing
// newline — the round-trip target for golden tests and the "spec
// status" wire format. Loading the output yields an identical spec.
func (s *Spec) Canonical() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Spec has no unmarshalable fields; this cannot happen.
		panic(err)
	}
	return append(out, '\n')
}
