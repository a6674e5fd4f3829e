package packet

import (
	"strings"
	"testing"
)

func TestEncodeUnknownHeader(t *testing.T) {
	p := New(1)
	if _, err := EncodeHeader(nil, "nosuch", p); err == nil {
		t.Fatal("encoded unknown header")
	}
	if _, err := DecodeHeader(nil, "nosuch", p); err == nil {
		t.Fatal("decoded unknown header")
	}
}

func TestMarshalUnknownHeaderFails(t *testing.T) {
	p := New(1)
	p.Headers = append(p.Headers, "ghost")
	if _, err := Marshal(p); err == nil {
		t.Fatal("marshalled packet with unknown header")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	p := TCPPacket(1, IP(10, 0, 0, 1), IP(10, 0, 0, 2), 1, 2, 0, 0)
	if err := FixIPv4Checksum(p); err != nil {
		t.Fatal(err)
	}
	if !VerifyIPv4Checksum(p) {
		t.Fatal("fresh checksum does not verify")
	}
	p.SetField("ipv4.ttl", p.Field("ipv4.ttl")-1)
	if VerifyIPv4Checksum(p) {
		t.Fatal("corrupted header still verifies")
	}
	if err := FixIPv4Checksum(p); err != nil {
		t.Fatal(err)
	}
	if !VerifyIPv4Checksum(p) {
		t.Fatal("re-fixed checksum does not verify")
	}
}

func TestFixChecksumWithoutIPv4(t *testing.T) {
	p := New(1)
	p.AddHeader("eth")
	if err := FixIPv4Checksum(p); err == nil {
		t.Fatal("fixed checksum on packet without ipv4")
	}
}

func TestHeaderFieldWidthMasking(t *testing.T) {
	// A value wider than the field must be masked on encode.
	p := New(1)
	p.AddHeader("vlan")
	p.SetField("vlan.vid", 0xFFFFF) // 12-bit field
	p.SetField("vlan.type", EtherTypeIPv4)
	raw, err := EncodeHeader(nil, "vlan", p)
	if err != nil {
		t.Fatal(err)
	}
	q := New(2)
	if _, err := DecodeHeader(raw, "vlan", q); err != nil {
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
