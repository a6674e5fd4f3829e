package packet

// Pool is a free list of packets for the one goroutine that owns it: a
// simulator, which takes every packet it creates from its pool and
// releases every packet whose life ends, so in steady state a packet
// costs no allocation and the collector has nothing to do. It is a plain
// slice, not a sync.Pool: a sync.Pool is emptied at every collection and
// hands packets out in an order that depends on the scheduler.
//
// The nil *Pool allocates every packet and keeps none it is given.
type Pool struct {
	free       []*Packet
	live, peak int
}

// New returns an empty packet with the given id, as New does, reusing a
// released packet when the pool holds one.
func (pl *Pool) New(id uint64) *Packet { return pl.sized(id, NumFieldIDs()) }

// sized is New for a PHV of n fields.
func (pl *Pool) sized(id uint64, n int) *Packet {
	var p *Packet
	if pl == nil || len(pl.free) == 0 {
		p = &Packet{ID: id}
	} else {
		p = pl.free[len(pl.free)-1]
		pl.free = pl.free[:len(pl.free)-1]
		p.ID, p.released = id, false
	}
	if pl != nil {
		if pl.live++; pl.live > pl.peak {
			pl.peak = pl.live
		}
	}
	p.vals, p.present = p.phv(n)
	return p
}

// Clone deep-copies p into a packet from the pool.
func (pl *Pool) Clone(p *Packet) *Packet {
	q := pl.sized(p.ID, len(p.vals))
	copy(q.vals, p.vals)
	copy(q.present, p.present)
	q.Headers, q.PayloadLen = p.Headers, p.PayloadLen
	q.IngressPort, q.EgressPort, q.Epoch = p.IngressPort, p.EgressPort, p.Epoch
	q.SentAt, q.HasSentAt = p.SentAt, p.HasSentAt
	if p.Trace != nil {
		q.Trace = append([]string(nil), p.Trace...)
	}
	return q
}

// Release ends p's life. It zeroes the whole packet, so whoever still
// holds p reads an empty packet, and keeps it for the pool's next New.
// Releasing a packet twice panics.
func (pl *Pool) Release(p *Packet) {
	if p.released {
		panic("packet: packet released twice")
	}
	*p = Packet{released: true}
	if pl != nil {
		pl.live--
		pl.free = append(pl.free, p)
	}
}

// Live returns the number of packets taken from the pool and not yet
// released.
func (pl *Pool) Live() int { return pl.live }

// Peak returns the largest Live has been.
func (pl *Pool) Peak() int { return pl.peak }

// Free returns the number of released packets waiting for reuse.
func (pl *Pool) Free() int { return len(pl.free) }
