package packet

import (
	"strings"
	"testing"
)

func TestMarshalUnknownHeaderFails(t *testing.T) {
	p := New(1)
	if err := p.AddHeader("ghost"); err != nil {
		t.Fatal(err)
	}
	if _, err := Marshal(p); err == nil {
		t.Fatal("marshalled packet with unknown header")
	}
}

func TestHeaderFieldWidthMasking(t *testing.T) {
	// A value wider than the field (vlan.vid is 12 bits) must be masked
	// on encode.
	p := UDPPacket(1, IP(10, 0, 0, 1), IP(10, 0, 0, 2), 53, 53, 0)
	if err := p.TagVLAN(0xFFFFF); err != nil {
		t.Fatal(err)
	}
	raw, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q := New(2)
	if err := StandardParseGraph().Parse(raw, q); err != nil {
		t.Fatal(err)
	}
	if q.Field("vlan.vid") != 0xFFF {
		t.Fatalf("vid = %#x, want masked 0xFFF", q.Field("vlan.vid"))
	}
}

func TestPacketString(t *testing.T) {
	p := UDPPacket(7, IP(1, 2, 3, 4), IP(5, 6, 7, 8), 9, 10, 0)
	s := p.String()
	for _, frag := range []string{"pkt 7", "eth,ipv4,udp", "udp.dport=10"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}
