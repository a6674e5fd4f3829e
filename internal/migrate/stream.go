package migrate

import (
	"fmt"
	"sort"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/dataplane/state"
	"flexnet/internal/drpc"
	"flexnet/internal/netsim"
)

// State-push methods.
const (
	// MethodChunk carries one (object, key, value) triple.
	MethodChunk uint64 = iota
	// MethodDone closes a stream; the reply acknowledges the number of
	// chunks received since the last Commit.
	MethodDone
)

// chunkInterval paces state-carrying packets; real data planes emit
// migration traffic at line rate, but pacing keeps the simulated
// network from drowning in control traffic.
const chunkInterval = 2 * time.Microsecond

// StateReceiver accumulates pushed state chunks for one destination
// instance and applies them on Commit.
type StateReceiver struct {
	inst  *dataplane.ProgramInstance
	names []string // objID → object name (sorted, shared convention)
	buf   map[int][]state.KV
	// additive switches Commit from absolute import to additive merge.
	additive bool
	// received counts chunks since the last Commit.
	received uint64
}

// NewStateReceiver creates a receiver bound to the destination instance.
func NewStateReceiver(inst *dataplane.ProgramInstance) *StateReceiver {
	names := inst.Store().Names()
	sort.Strings(names)
	return &StateReceiver{inst: inst, names: names, buf: map[int][]state.KV{}}
}

// SetAdditive selects additive merge for subsequent commits (the
// residual-delta phase).
func (rc *StateReceiver) SetAdditive(v bool) { rc.additive = v }

// Handler returns the drpc handler implementing ServiceStatePush.
func (rc *StateReceiver) Handler() drpc.Handler {
	return func(from uint32, m drpc.Message) *drpc.Message {
		switch m.Method {
		case MethodChunk:
			obj := int(m.Args[0])
			rc.buf[obj] = append(rc.buf[obj], state.KV{Key: m.Args[1], Val: m.Args[2]})
			rc.received++
			return nil
		case MethodDone:
			return &drpc.Message{Args: [3]uint64{rc.received, 0, 0}}
		default:
			return &drpc.Message{Flags: drpc.FlagError}
		}
	}
}

// Commit applies buffered chunks to the destination and clears the
// buffer and its chunk count. In absolute mode the buffered entries
// replace the objects' state; in additive mode they are merged (values
// added).
func (rc *StateReceiver) Commit() error {
	defer func() { rc.buf, rc.received = map[int][]state.KV{}, 0 }()
	if !rc.additive {
		// Build logical objects with local shapes and imported entries.
		shapes := map[string]state.Logical{}
		for _, l := range rc.inst.ExportState() {
			shapes[l.Name] = l
		}
		var ls []state.Logical
		for objID, entries := range rc.buf {
			if objID < 0 || objID >= len(rc.names) {
				return fmt.Errorf("migrate: chunk references unknown object %d", objID)
			}
			name := rc.names[objID]
			shape := shapes[name]
			ls = append(ls, state.Logical{
				Name:    name,
				Kind:    shape.Kind,
				Params:  shape.Params,
				Entries: entries,
			})
		}
		return rc.inst.ImportState(ls)
	}
	// Additive merge.
	for objID, entries := range rc.buf {
		if objID < 0 || objID >= len(rc.names) {
			return fmt.Errorf("migrate: chunk references unknown object %d", objID)
		}
		name := rc.names[objID]
		obj := rc.inst.Store().Get(name)
		switch o := obj.(type) {
		case *state.Map:
			for _, kv := range entries {
				cur, _ := o.Load(kv.Key)
				if err := o.Store(kv.Key, cur+kv.Val); err != nil {
					return err
				}
			}
		case *state.Counter:
			for _, kv := range entries {
				o.Add(kv.Key, kv.Val)
			}
		default:
			// Non-additive objects (meters) keep their snapshot values;
			// residual deltas do not apply.
		}
	}
	return nil
}

// stateSender streams a logical state set to a destination router.
type stateSender struct {
	router *drpc.Router
	dst    uint32
	chunks [][3]uint64
}

// newStateSender flattens ls into chunks. allNames is the full sorted
// object-name universe of the program instance — the same convention
// StateReceiver derives from its own store — so object IDs agree even
// when ls (a delta) omits objects.
func newStateSender(router *drpc.Router, dst uint32, ls []state.Logical, allNames []string) *stateSender {
	idx := make(map[string]int, len(allNames))
	for i, n := range allNames {
		idx[n] = i
	}
	s := &stateSender{router: router, dst: dst}
	for _, l := range ls {
		objID, ok := idx[l.Name]
		if !ok {
			continue // object unknown to the shared convention
		}
		for _, kv := range l.Entries {
			s.chunks = append(s.chunks, [3]uint64{uint64(objID), kv.Key, kv.Val})
		}
	}
	return s
}

func (s *stateSender) totalChunks() int { return len(s.chunks) }

// start paces the chunks onto the network, then sends MethodDone and
// invokes onDone when the receiver acknowledges. Chunks are
// fire-and-forget notifications, so the count the acknowledgement
// carries is the only sign that every one arrived: onDone gets an error
// when it falls short or the receiver refuses the call.
func (s *stateSender) start(sim *netsim.Sim, onDone func(error)) {
	for i, c := range s.chunks {
		c := c
		sim.After(netsim.Time(i)*chunkInterval, func() {
			s.router.Notify(s.dst, drpc.ServiceStatePush, MethodChunk, c)
		})
	}
	fin := netsim.Time(len(s.chunks)) * chunkInterval
	sim.After(fin, func() {
		s.router.Call(s.dst, drpc.ServiceStatePush, MethodDone, [3]uint64{}, func(m drpc.Message, ok bool) {
			switch want := uint64(len(s.chunks)); {
			case !ok:
				onDone(fmt.Errorf("migrate: receiver refused the end of a %d-chunk state stream", want))
			case m.Args[0] != want:
				onDone(fmt.Errorf("migrate: receiver acknowledged %d of %d state chunks", m.Args[0], want))
			default:
				onDone(nil)
			}
		})
	})
}
