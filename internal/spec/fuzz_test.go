package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// oracleLoad is Load with encoding/json as the decoder, as Load was
// before it had its own: DisallowUnknownFields, plus the two rules the
// decoder adds — nothing but whitespace after the document, and no
// object naming one field twice (keys match case-insensitively, so
// "apps" and "Apps" are one field).
func oracleLoad(data []byte) (*Spec, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, errors.New("empty document")
	}
	raw := trimmed
	if trimmed[0] != '{' {
		v, err := parseYAML(data)
		if err != nil {
			return nil, err
		}
		if raw, err = json.Marshal(v); err != nil {
			return nil, err
		}
	}
	if k := repeatedKey(raw); k != "" {
		return nil, fmt.Errorf("key %q repeated", k)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, err
	}
	if rest := bytes.Trim(raw[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, errors.New("trailing data")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.normalize()
	return s, nil
}

// repeatedKey returns a key of the first JSON value in raw that some
// object holds twice, compared as encoding/json matches keys to fields,
// or "" if there is none or the value is malformed.
func repeatedKey(raw []byte) string {
	dec := json.NewDecoder(bytes.NewReader(raw))
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		if n := len(stack); n > 0 && stack[n-1].object && stack[n-1].wantKey {
			top := stack[n-1]
			if k, ok := tok.(string); ok {
				for _, seen := range top.keys {
					if strings.EqualFold(seen, k) {
						return k
					}
				}
				top.keys = append(top.keys, k)
				top.wantKey = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value ended: its object wants a key next.
		if len(stack) == 0 {
			return ""
		}
		if top := stack[len(stack)-1]; top.object {
			top.wantKey = true
		}
	}
}

// fuzzSeeds are the documents FuzzSpecLoad starts from: the example
// specs, the storm-shaped document, the refused documents of
// TestLoadErrors, and the corners where the decoder must read as
// encoding/json reads.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	files, err := filepath.Glob("../../examples/specs/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("example specs: %v (%d files)", err, len(files))
	}
	files = append(files, "testdata/storm.json")
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, tc := range loadErrors {
		seeds = append(seeds, []byte(tc.doc))
	}
	for _, doc := range []string{
		demoYAML,
		`{"VERSION":"v1","Apps":[{"URI":"flexnet://a/b","ſegments":[{"name":"x","app":"l2"}]}]}`,
		`{"version":"v\u0031\ud83d\ude00\ud800x\"\\\/\b\f\n\r\t","tenants":null,"apps":[]}`,
		`{"version":"v1","tenants":[null],"apps":[{"uri":"flexnet://a/b","tenant":null,"path":[],"segments":[{"name":"x","app":"l2","args":[1,null,18446744073709551615],"scale":null}]}]}`,
		`{"version":"v1","apps":[{"uri":"flexnet://a/b","segments":[{"name":"x","app":"l2","args":[18446744073709551616]}]}]}`,
		`{"version":"v1","apps":[{"uri":"flexnet://a/b","segments":[{"name":"x","app":"l2","scale":-0}]}]}`,
		`{"version":"v1","apps":[{"uri":"flexnet://a/b","segments":[{"name":"x","app":"l2","scale":1e2}]}]}`,
		`{"version":"v1","version":"v2"}`,
		`{"version":"v1","Version":"v2"}`,
		"{\"version\":\"v\xff1\"}",
		` {"version" : "v1" , "apps" : [ ] } ` + "\n\t",
		`{"version":"v1",}`,
		`{"version":"v1","apps":[1,]}`,
		`{"version":"v1"}}`,
		"version: v1\nVersion: v2",
	} {
		seeds = append(seeds, []byte(doc))
	}
	return seeds
}

// checkAgainstOracle requires Load and oracleLoad to agree on data:
// both refuse it, or both accept it as the same Spec, which then
// round-trips through Canonical. It reports whether data is a spec.
func checkAgainstOracle(t *testing.T, data []byte) bool {
	got, err := Load(data)
	want, werr := oracleLoad(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Load and encoding/json disagree on %q:\nLoad: %v\nencoding/json: %v", data, err, werr)
	}
	if err != nil {
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Load and encoding/json read %q differently:\nLoad: %#v\nencoding/json: %#v", data, got, want)
	}
	canon := got.Canonical()
	again, err := Load(canon)
	if err != nil {
		t.Fatalf("canonical form of %q does not load: %v\n%s", data, err, canon)
	}
	if c := again.Canonical(); !bytes.Equal(c, canon) {
		t.Fatalf("canonical form of %q is not a fixpoint:\n%s\n%s", data, canon, c)
	}
	return true
}

// TestLoadMatchesOracle runs the fuzz seeds through the oracle check on
// every plain test run.
func TestLoadMatchesOracle(t *testing.T) {
	accepted := 0
	for _, doc := range fuzzSeeds(t) {
		if checkAgainstOracle(t, doc) {
			accepted++
		}
	}
	if accepted < 8 {
		t.Fatalf("only %d seeds load; the oracle check needs specs to compare", accepted)
	}
}

// FuzzSpecLoad: on any input, Load and encoding/json (oracleLoad) agree
// on whether it is a spec, and on which spec it is.
func FuzzSpecLoad(f *testing.F) {
	for _, doc := range fuzzSeeds(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstOracle(t, data) })
}
