package packet

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// chainModel is FuzzHeaderChain's reference: a packet's header chain as
// a []string of names.
type chainModel []string

// insert puts name at position i (clamped) unless it is present; a chain
// already at ChainCap refuses.
func (m chainModel) insert(i int, name string) (chainModel, error) {
	if slices.Contains(m, name) {
		return m, nil
	}
	if len(m) == ChainCap {
		return m, ErrChainFull
	}
	i = max(0, min(i, len(m)))
	return slices.Insert(slices.Clone(m), i, name), nil
}

// fuzzHeaders is the alphabet FuzzHeaderChain draws from: every standard
// header, and nine names no codec knows, so that a chain can fill.
var fuzzHeaders = [16]string{"eth", "vlan", "ipv4", "tcp", "udp", "shim8", "int", "drpc",
	"shim0", "shim1", "shim2", "shim3", "shim4", "shim5", "shim6", "shim7"}

// FuzzHeaderChain drives two packets through random AddHeader / Clone /
// VLAN-insert / insert / chain-copy sequences
// against a []string model of each, and after every step checks the
// chain's order, names, Has for every header, Len() == PayloadLen + the
// sum of the headers' wire sizes, Packet.String's header list, Marshal
// byte for byte against encoding the model's headers one by one, and
// that the two chains are == exactly when their name sequences are
// equal — the property the flow cache's header validation rests on.
//
// Each op byte reads: bit 7 picks the packet, bits 4–6 the operation,
// bits 0–3 the header or an insert position. Only the
// first 64 op bytes run, which is more than it takes to fill both chains.
func FuzzHeaderChain(f *testing.F) {
	f.Add([]byte{0x00, 0x02, 0x03, 0x80, 0x82, 0x84, 0x60}, uint16(64))
	f.Add([]byte{0x00, 0x02, 0x04, 0x40, 0x10, 0x11, 0x21, 0x30, 0xe0}, uint16(0))
	f.Add([]byte{0x08, 0x09, 0x0a, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x5f, 0x50, 0x51, 0x52}, uint16(1500))
	f.Fuzz(func(t *testing.T, ops []byte, payload uint16) {
		var pkts [2]*Packet
		var models [2]chainModel
		for i := range pkts {
			pkts[i] = New(uint64(i))
			pkts[i].PayloadLen = int(payload % 2048)
		}
		for step, op := range ops[:min(len(ops), 64)] {
			w := op >> 7
			p, m := pkts[w], models[w]
			name := fuzzHeaders[op&0x0f]
			var got, want error
			switch (op >> 4) & 7 {
			case 0, 1, 2:
				got = p.AddHeader(name)
				m, want = m.insert(len(m), name)
			case 3:
				p = p.Clone()
			case 4: // VLAN tag after the outermost header, as a tagged source inserts it
				got = p.InsertHeaderID(1, HeaderVLAN)
				m, want = m.insert(1, "vlan")
			case 5:
				id, err := InternHeader(name)
				if err != nil {
					t.Fatal(err)
				}
				pos := int(op&0x0f) % (len(m) + 2)
				got = p.InsertHeaderID(pos, id)
				m, want = m.insert(pos, name)
			case 6:
				p.Headers = pkts[1-w].Headers
				m = slices.Clone(models[1-w])
			case 7:
				id, err := InternHeader(name)
				if err != nil {
					t.Fatal(err)
				}
				got = p.AddHeaderID(id)
				m, want = m.insert(len(m), name)
			}
			if !errors.Is(got, want) {
				t.Fatalf("step %d (op %#x): error %v, model %v", step, op, got, want)
			}
			pkts[w], models[w] = p, m
			for i := range pkts {
				if err := checkChain(pkts[i], models[i]); err != nil {
					t.Fatalf("step %d (op %#x), packet %d: %v", step, op, i, err)
				}
			}
			if eq, want := pkts[0].Headers == pkts[1].Headers, slices.Equal(models[0], models[1]); eq != want {
				t.Fatalf("step %d: chains == is %v for %v and %v", step, eq, models[0], models[1])
			}
		}
	})
}

// checkChain compares p's chain with the model on every view of it.
func checkChain(p *Packet, m chainModel) error {
	if got := p.Headers.Names(); !slices.Equal(got, m) || p.Headers.Len() != len(m) {
		return fmt.Errorf("chain %v (len %d), model %v", got, p.Headers.Len(), m)
	}
	for _, h := range fuzzHeaders {
		if p.Has(h) != slices.Contains(m, h) {
			return fmt.Errorf("Has(%q) = %v on model %v", h, p.Has(h), m)
		}
	}
	wantLen := p.PayloadLen
	for _, h := range m {
		if s := specNamed(h); s != nil {
			wantLen += s.bytes
		}
	}
	if p.Len() != wantLen {
		return fmt.Errorf("Len() = %d, want %d for %v", p.Len(), wantLen, m)
	}
	if prefix := "pkt " + strconv.FormatUint(p.ID, 10) + " [" + strings.Join(m, ",") + "]"; !strings.HasPrefix(p.String(), prefix) {
		return fmt.Errorf("String() = %q, want prefix %q", p.String(), prefix)
	}
	var ref []byte
	var refErr error
	for _, h := range m {
		s := specNamed(h)
		if s == nil {
			refErr = fmt.Errorf("no wire layout for %q", h)
			break
		}
		if ref, refErr = s.encode(ref, p); refErr != nil {
			break
		}
	}
	raw, err := Marshal(p)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("Marshal error %v, encoding the model's headers %v", err, refErr)
	}
	if err == nil && !bytes.Equal(raw, append(ref, make([]byte, p.PayloadLen)...)) {
		return fmt.Errorf("Marshal differs from the model's headers encoded in order")
	}
	return nil
}
