package packet

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FieldID is a dense integer handle for an interned field name.
//
// Runtime-programmable datapaths do not chase strings per packet: field
// references are resolved to offsets when a program is compiled or
// linked. FieldID is that resolution for the simulator — the install-time
// linker (internal/flexbpf.Link) interns every field a program touches,
// and the packet fast path addresses the PHV by index instead of by name.
type FieldID int32

// fieldTable is an immutable snapshot of the global intern table. Readers
// load it with a single atomic pointer read; writers clone-and-swap under
// internMu, so the per-packet path never takes a lock.
type fieldTable struct {
	byName map[string]FieldID
	names  []string
}

var (
	internMu sync.Mutex
	fields   atomic.Pointer[fieldTable]

	// emptyFields stands in before the first intern. Header registration
	// runs during package-variable init, before any init() would run, so
	// loads must tolerate a nil pointer.
	emptyFields = &fieldTable{byName: map[string]FieldID{}}
)

func loadFields() *fieldTable {
	if t := fields.Load(); t != nil {
		return t
	}
	return emptyFields
}

// InternField returns the stable FieldID for name, interning it on first
// use. Interning is a control-plane operation (program install, header
// registration); the returned ID is valid for the process lifetime.
func InternField(name string) FieldID {
	if id, ok := loadFields().byName[name]; ok {
		return id
	}
	internMu.Lock()
	defer internMu.Unlock()
	old := loadFields()
	if id, ok := old.byName[name]; ok {
		return id
	}
	id := FieldID(len(old.names))
	next := &fieldTable{
		byName: make(map[string]FieldID, len(old.byName)+1),
		names:  make([]string, len(old.names), len(old.names)+1),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	copy(next.names, old.names)
	next.byName[name] = id
	next.names = append(next.names, name)
	fields.Store(next)
	return id
}

// FieldIDOf returns the ID for an already-interned field name.
func FieldIDOf(name string) (FieldID, bool) {
	id, ok := loadFields().byName[name]
	return id, ok
}

// FieldIDName returns the name interned as id ("" if out of range).
func FieldIDName(id FieldID) string {
	t := loadFields()
	if id < 0 || int(id) >= len(t.names) {
		return ""
	}
	return t.names[id]
}

// NumFieldIDs returns the number of interned field names. IDs are dense:
// every id in [0, NumFieldIDs()) is valid.
func NumFieldIDs() int { return len(loadFields().names) }

// HeaderID is a dense handle for an interned header type name: what a
// header chain (Chain) holds in place of the name, as the PHV is indexed
// by FieldID in place of "header.field". The standard headers are
// interned at package init under the constants below; any other name is
// interned on first use (program install, AddHeader). The zero HeaderID
// names no header.
type HeaderID uint8

// MaxHeaderIDs is the number of header names the HeaderID space holds.
const MaxHeaderIDs = 1<<8 - 1

// The standard headers' IDs, in the order layers.go registers them
// (registerHeader checks it).
const (
	HeaderEth HeaderID = 1 + iota
	HeaderVLAN
	HeaderIPv4
	HeaderTCP
	HeaderUDP
	HeaderINT
	HeaderDRPC
)

// ErrHeaderIDSpace is InternHeader's error once MaxHeaderIDs names are
// interned.
var ErrHeaderIDSpace = fmt.Errorf("packet: header ID space exhausted (%d header names interned)", MaxHeaderIDs)

// headerTable is an immutable snapshot of the header intern table,
// published like fieldTable. names[0] is "", the zero ID.
type headerTable struct {
	byName map[string]HeaderID
	names  []string
}

var (
	headers      atomic.Pointer[headerTable]
	emptyHeaders = &headerTable{byName: map[string]HeaderID{}, names: []string{""}}
)

func loadHeaders() *headerTable {
	if t := headers.Load(); t != nil {
		return t
	}
	return emptyHeaders
}

// InternHeader returns the stable HeaderID for name, interning it on
// first use. It fails once the HeaderID space is full, so a program
// naming one header too many is refused at install.
func InternHeader(name string) (HeaderID, error) {
	if id, ok := loadHeaders().byName[name]; ok {
		return id, nil
	}
	if name == "" {
		return 0, fmt.Errorf("packet: empty header name")
	}
	internMu.Lock()
	defer internMu.Unlock()
	old := loadHeaders()
	if id, ok := old.byName[name]; ok {
		return id, nil
	}
	if len(old.names) > MaxHeaderIDs {
		return 0, fmt.Errorf("%w: cannot intern %q", ErrHeaderIDSpace, name)
	}
	id := HeaderID(len(old.names))
	next := &headerTable{byName: make(map[string]HeaderID, len(old.byName)+1), names: append(old.names[:len(old.names):len(old.names)], name)}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	next.byName[name] = id
	headers.Store(next)
	return id, nil
}

// HeaderIDOf returns the ID of an already-interned header name.
func HeaderIDOf(name string) (HeaderID, bool) {
	id, ok := loadHeaders().byName[name]
	return id, ok
}

// HeaderName returns the name interned as id ("" for the zero ID or one
// not interned).
func HeaderName(id HeaderID) string {
	t := loadHeaders()
	if int(id) >= len(t.names) {
		return ""
	}
	return t.names[id]
}
