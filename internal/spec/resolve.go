package spec

import (
	"encoding/binary"
	"fmt"
	"sync"

	"flexnet/internal/apps"
	"flexnet/internal/compiler"
	"flexnet/internal/flexbpf"
)

// Resolved is a spec with every segment's builtin app kind instantiated
// into a concrete program and fingerprinted. Fingerprints are what the
// differ compares against live state: they ignore program identity
// (compiler.Fingerprint), so "same kind, same args" matches regardless
// of who built the program, while an arg change (a table resize, a new
// QoS rate) produces a new fingerprint and therefore a hitless swap.
type Resolved struct {
	Version string
	Source  *Spec
	// Tenants is sorted.
	Tenants []string
	// Apps is keyed by URI; AppURIs gives deterministic order.
	Apps map[string]*ResolvedApp
}

// AppURIs returns the app URIs in sorted order.
func (r *Resolved) AppURIs() []string {
	uris := make([]string, 0, len(r.Apps))
	for u := range r.Apps {
		uris = append(uris, u)
	}
	sortStrings(uris)
	return uris
}

// ResolvedApp is one app with instantiated segment programs.
type ResolvedApp struct {
	URI      string
	Tenant   string
	Path     []string
	Segments []ResolvedSegment
}

// Segment returns the resolved segment by name, or nil.
func (a *ResolvedApp) Segment(name string) *ResolvedSegment {
	for i := range a.Segments {
		if a.Segments[i].Name == name {
			return &a.Segments[i]
		}
	}
	return nil
}

// Datapath builds the app's flexbpf datapath from private copies of
// the resolved segment programs, so callers may mutate it freely.
func (a *ResolvedApp) Datapath() *flexbpf.Datapath {
	segs := make([]*flexbpf.Program, len(a.Segments))
	for i := range a.Segments {
		segs[i] = a.Segments[i].Program()
	}
	return &flexbpf.Datapath{Name: a.URI, Owner: a.Tenant, Segments: segs}
}

// ResolvedSegment is one segment with its instantiated program.
type ResolvedSegment struct {
	Name  string
	Kind  string
	Args  []uint64
	Scale int
	// proto is the memo's program for (Kind, Name, Args), shared by
	// every Resolve of that tuple; it never leaves this package.
	proto *flexbpf.Program
	fp    uint64
}

// Program returns a private copy of the segment's program: a caller
// may edit it, install it or keep it, and nothing it does reaches
// another resolved spec.
func (g *ResolvedSegment) Program() *flexbpf.Program { return g.proto.Clone() }

// FP is compiler.Fingerprint of the segment's program — the identity
// the differ compares against live segments.
func (g *ResolvedSegment) FP() uint64 { return g.fp }

// builtinMemoBound caps the resolve memo. A network's specs name a few
// hundred distinct (kind, segment name, args) tuples at most; past the
// bound an arbitrary entry makes room, so a stream of never-repeating
// tuples costs what it did before the memo and holds no more than this.
const builtinMemoBound = 1024

// builtinMemo remembers, per (builtin kind, segment name, args), the
// program apps.Builtin builds for that tuple and its fingerprint:
// Builtin is a pure function of the tuple, and between two revisions of
// a spec most segments are unchanged, so resolving one costs a map
// lookup instead of a build and a fingerprint (DESIGN.md §14.2). The
// prototypes are never handed out — ResolvedSegment.Program clones —
// which is why a process-wide memo cannot carry one caller's edits to
// another.
var builtinMemo = struct {
	sync.Mutex
	m map[string]builtinProto
}{m: map[string]builtinProto{}}

type builtinProto struct {
	prog *flexbpf.Program
	fp   uint64
}

// fingerprint is the package's one call of compiler.Fingerprint.
var fingerprint = compiler.Fingerprint

// resolveBuiltin returns the memo's prototype program for the tuple and
// its fingerprint. The caller must not edit the prototype.
func resolveBuiltin(kind, name string, args []uint64) (*flexbpf.Program, uint64, error) {
	// Length-prefixed so no two tuples share a key.
	key := make([]byte, 0, 64)
	key = binary.AppendUvarint(key, uint64(len(kind)))
	key = append(key, kind...)
	key = binary.AppendUvarint(key, uint64(len(name)))
	key = append(key, name...)
	for _, a := range args {
		key = binary.LittleEndian.AppendUint64(key, a)
	}
	builtinMemo.Lock()
	proto, ok := builtinMemo.m[string(key)]
	builtinMemo.Unlock()
	if !ok {
		prog, err := apps.Builtin(kind, name, args)
		if err != nil {
			return nil, 0, err
		}
		proto = builtinProto{prog: prog, fp: fingerprint(prog)}
		builtinMemo.Lock()
		if len(builtinMemo.m) >= builtinMemoBound {
			for k := range builtinMemo.m {
				delete(builtinMemo.m, k)
				break
			}
		}
		builtinMemo.m[string(key)] = proto
		builtinMemo.Unlock()
	}
	return proto.prog, proto.fp, nil
}

// Resolve instantiates every segment's builtin app kind into a program
// named after the segment. It takes a spec that Load returned, or one
// that passed Validate: it does not validate the document again. It
// copies nothing of a program: each segment refers to the memo's
// prototype, and ResolvedSegment.Program clones it for the caller that
// installs it.
func Resolve(s *Spec) (*Resolved, error) {
	r := &Resolved{
		Version: s.Version,
		Source:  s,
		Apps:    make(map[string]*ResolvedApp, len(s.Apps)),
	}
	for _, t := range s.Tenants {
		r.Tenants = append(r.Tenants, t.Name)
	}
	sortStrings(r.Tenants)
	// One allocation each for the apps, segments and args, which live
	// as long as the resolved spec; every slice handed out is capped at
	// its own length. A path gets its own copy: the app created from it
	// keeps it.
	var nsegs, nargs int
	for _, a := range s.Apps {
		nsegs += len(a.Segments)
		for _, g := range a.Segments {
			nargs += len(g.Args)
		}
	}
	ras := make([]ResolvedApp, len(s.Apps))
	segs := make([]ResolvedSegment, 0, nsegs)
	args := make([]uint64, 0, nargs)
	for i, a := range s.Apps {
		ra := &ras[i]
		*ra = ResolvedApp{URI: a.URI, Tenant: a.Tenant, Path: append([]string(nil), a.Path...)}
		first := len(segs)
		for _, g := range a.Segments {
			proto, fp, err := resolveBuiltin(g.App, g.Name, g.Args)
			if err != nil {
				return nil, fmt.Errorf("spec %s: app %s segment %s: %w", s.Version, a.URI, g.Name, err)
			}
			scale := g.Scale
			if scale == 0 {
				scale = 1
			}
			var gargs []uint64
			if len(g.Args) > 0 {
				n := len(args)
				args = append(args, g.Args...)
				gargs = args[n:len(args):len(args)]
			}
			segs = append(segs, ResolvedSegment{Name: g.Name, Kind: g.App, Args: gargs, Scale: scale, proto: proto, fp: fp})
		}
		if len(segs) > first {
			ra.Segments = segs[first:len(segs):len(segs)]
		}
		r.Apps[a.URI] = ra
	}
	return r, nil
}
