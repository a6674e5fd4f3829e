package apps

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flexnet/internal/flexbpf"
)

// param is one numeric argument of a builtin kind: its name, its default
// when the argument vector stops short of it, and the closed range its
// constructor accepts.
type param struct {
	name     string
	def      uint64
	min, max uint64
}

// maxSize bounds table and map sizes. The verifier refuses 0; 2^32
// entries already exceed every device's memory, and the bound keeps a
// program's resource demand (entries × bits per entry) from overflowing.
const maxSize = 1 << 32

func size(name string, def uint64) param  { return param{name, def, 1, maxSize} }
func value(name string, def uint64) param { return param{name, def, 0, math.MaxUint64} }

// builtins maps every builtin app kind to its constructor. The kind
// strings are the management-plane vocabulary: flexnetd's "deploy" op,
// flexctl's -app flag, and declarative specs (internal/spec) all name
// programs by these kinds, so the table lives here — next to the
// constructors — instead of being duplicated per frontend.
//
// Each constructor receives the program name and the kind's full
// argument vector, defaults filled in and every argument checked against
// its param (and check, where arguments constrain each other), so it
// never panics on wire input.
var builtins = map[string]struct {
	summary string
	params  []param
	check   func(a []uint64) error
	build   func(name string, a []uint64) *flexbpf.Program
}{
	"syn-defense": {
		summary: "elastic SYN-flood defense",
		params:  []param{size("sources", 1024), value("threshold", 10)},
		build: func(name string, a []uint64) *flexbpf.Program {
			return SYNDefense(name, int(a[0]), a[1])
		},
	},
	"heavy-hitter": {
		summary: "count-min heavy-hitter monitor",
		params:  []param{{"rows", 2, 1, 4}, size("cols", 512), value("threshold", 1000)},
		build: func(name string, a []uint64) *flexbpf.Program {
			return HeavyHitter(name, int(a[0]), int(a[1]), a[2])
		},
	},
	"rate-limiter": {
		summary: "meter-based rate limiter",
		params:  []param{size("classes", 8), value("cir", 1_000_000), value("pir", 2_000_000)},
		check: func(a []uint64) error {
			if a[2] < a[1] {
				return fmt.Errorf("argument pir = %d is below cir = %d", a[2], a[1])
			}
			return nil
		},
		build: func(name string, a []uint64) *flexbpf.Program {
			return RateLimiter(name, int(a[0]), a[1], a[2])
		},
	},
	"firewall": {
		summary: "stateful firewall",
		params:  []param{size("aclSize", 64), size("connSize", 1024), value("trustedPort", 0)},
		build: func(name string, a []uint64) *flexbpf.Program {
			return Firewall(name, int(a[0]), int(a[1]), a[2])
		},
	},
	"l2": {
		summary: "MAC learning forwarder",
		params:  []param{size("tableSize", 256)},
		build: func(name string, a []uint64) *flexbpf.Program {
			return L2Forwarder(name, int(a[0]))
		},
	},
	"int": {
		summary: "in-band telemetry",
		params:  []param{value("deviceID", 1)},
		build: func(name string, a []uint64) *flexbpf.Program {
			return INTTelemetry(name, a[0])
		},
	},
}

// Builtin instantiates a builtin app kind under the given program name
// with the kind's numeric argument vector (table sizes, thresholds, QoS
// rates — see BuiltinKinds for the per-kind argument docs); missing
// trailing arguments take their defaults. Unknown kinds are an error
// naming the known set; more arguments than the kind takes, or an
// argument outside the range the kind's constructor accepts, is an error
// naming the kind and its arguments.
func Builtin(kind, name string, args []uint64) (*flexbpf.Program, error) {
	b, ok := builtins[kind]
	if !ok {
		return nil, fmt.Errorf("unknown builtin app %q (have: %s)", kind, kindList())
	}
	if len(args) > len(b.params) {
		names := make([]string, len(b.params))
		for i, p := range b.params {
			names[i] = p.name
		}
		return nil, fmt.Errorf("builtin app %s: %d arguments, takes %d (%s)", kind, len(args), len(b.params), strings.Join(names, ", "))
	}
	a := make([]uint64, len(b.params))
	for i, p := range b.params {
		a[i] = p.def
		if i < len(args) {
			a[i] = args[i]
		}
		if a[i] < p.min || a[i] > p.max {
			return nil, fmt.Errorf("builtin app %s: argument %s = %d out of range %d..%d", kind, p.name, a[i], p.min, p.max)
		}
	}
	if b.check != nil {
		if err := b.check(a); err != nil {
			return nil, fmt.Errorf("builtin app %s: %w", kind, err)
		}
	}
	return b.build(name, a), nil
}

// BuiltinKinds returns every builtin app kind with its one-line summary
// and argument defaults, keyed by kind.
func BuiltinKinds() map[string]string {
	out := make(map[string]string, len(builtins))
	for k, b := range builtins {
		args := make([]string, len(b.params))
		for i, p := range b.params {
			args[i] = fmt.Sprintf("%s=%d", p.name, p.def)
		}
		out[k] = fmt.Sprintf("%s (args: %s)", b.summary, strings.Join(args, ", "))
	}
	return out
}

func kindList() string {
	kinds := make([]string, 0, len(builtins))
	for k := range builtins {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return strings.Join(kinds, ", ")
}
