package packet

import (
	"errors"
	"strings"
)

// ChainCap is the number of headers one packet's chain holds: a full
// Eth/VLAN/IPv4/L4 stack with room for nine more.
const ChainCap = 13

// ErrChainFull is returned when a header would not fit in the chain.
var ErrChainFull = errors.New("packet: header chain full")

// Chain is a packet's header chain: the headers present, in parse order,
// as interned IDs. It is a value — a fixed array, a length and the
// running sum of the headers' wire bytes — so a packet carries it inline,
// Packet.Len reads the byte sum instead of walking names, and two chains
// hold the same headers in the same order exactly when they are ==
// (slots past the length are always zero). A chain never holds one
// header twice.
type Chain struct {
	ids   [ChainCap]HeaderID
	n     uint8
	bytes uint16
}

// headerSize is the wire size in bytes of each standard header, by ID;
// registerHeader fills it at package init, and any other header is 0
// bytes.
var headerSize [MaxHeaderIDs + 1]uint16

// Len returns the number of headers in the chain.
func (c Chain) Len() int { return int(c.n) }

// At returns the i-th header, counting from the outermost.
func (c Chain) At(i int) HeaderID { return c.ids[:c.n][i] }

// Bytes returns the sum of the headers' wire sizes.
func (c Chain) Bytes() int { return int(c.bytes) }

// Has reports whether the header is in the chain.
func (c Chain) Has(id HeaderID) bool { return c.index(id) >= 0 }

func (c Chain) index(id HeaderID) int {
	if id == 0 {
		return -1
	}
	for i := 0; i < int(c.n); i++ {
		if c.ids[i] == id {
			return i
		}
	}
	return -1
}

// Names returns the header names in chain order.
func (c Chain) Names() []string {
	out := make([]string, c.n)
	for i := range out {
		out[i] = HeaderName(c.ids[i])
	}
	return out
}

// String renders the names comma-separated, outermost first.
func (c Chain) String() string { return strings.Join(c.Names(), ",") }

// insert puts id at position i, or at the end when i is past it. A header
// already in the chain stays where it is; one that does not fit is
// refused with ErrChainFull, and the chain is left as it was.
func (c *Chain) insert(i int, id HeaderID) error {
	if id == 0 {
		return errors.New("packet: zero header ID")
	}
	if c.Has(id) {
		return nil
	}
	if int(c.n) == ChainCap {
		return ErrChainFull
	}
	i = max(0, min(i, int(c.n)))
	copy(c.ids[i+1:c.n+1], c.ids[i:c.n])
	c.ids[i] = id
	c.n++
	c.bytes += headerSize[id]
	return nil
}
