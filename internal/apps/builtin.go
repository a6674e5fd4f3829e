package apps

import (
	"fmt"
	"sort"

	"flexnet/internal/flexbpf"
)

// builtins maps every builtin app kind to its constructor. The kind
// strings are the management-plane vocabulary: flexnetd's "deploy" op,
// flexctl's -app flag, and declarative specs (internal/spec) all name
// programs by these kinds, so the table lives here — next to the
// constructors — instead of being duplicated per frontend.
//
// Each constructor receives the program name and the kind's numeric
// argument vector; missing arguments take the documented defaults.
var builtins = map[string]struct {
	summary string
	build   func(name string, arg func(i int, def uint64) uint64) *flexbpf.Program
}{
	"syn-defense": {
		summary: "elastic SYN-flood defense (args: sources=1024, threshold=10)",
		build: func(name string, a func(int, uint64) uint64) *flexbpf.Program {
			return SYNDefense(name, int(a(0, 1024)), a(1, 10))
		},
	},
	"heavy-hitter": {
		summary: "count-min heavy-hitter monitor (args: rows=2, cols=512, threshold=1000)",
		build: func(name string, a func(int, uint64) uint64) *flexbpf.Program {
			return HeavyHitter(name, int(a(0, 2)), int(a(1, 512)), a(2, 1000))
		},
	},
	"rate-limiter": {
		summary: "meter-based rate limiter (args: classes=8, cir=1M, pir=2M)",
		build: func(name string, a func(int, uint64) uint64) *flexbpf.Program {
			return RateLimiter(name, int(a(0, 8)), a(1, 1_000_000), a(2, 2_000_000))
		},
	},
	"firewall": {
		summary: "stateful firewall (args: aclSize=64, connSize=1024, trustedPort=0)",
		build: func(name string, a func(int, uint64) uint64) *flexbpf.Program {
			return Firewall(name, int(a(0, 64)), int(a(1, 1024)), a(2, 0))
		},
	},
	"l2": {
		summary: "MAC learning forwarder (args: tableSize=256)",
		build: func(name string, a func(int, uint64) uint64) *flexbpf.Program {
			return L2Forwarder(name, int(a(0, 256)))
		},
	},
	"int": {
		summary: "in-band telemetry (args: deviceID=1)",
		build: func(name string, a func(int, uint64) uint64) *flexbpf.Program {
			return INTTelemetry(name, a(0, 1))
		},
	},
}

// Builtin instantiates a builtin app kind under the given program name
// with the kind's numeric argument vector (table sizes, thresholds, QoS
// rates — see BuiltinKinds for the per-kind argument docs). Unknown
// kinds are an error naming the known set.
func Builtin(kind, name string, args []uint64) (*flexbpf.Program, error) {
	b, ok := builtins[kind]
	if !ok {
		return nil, fmt.Errorf("unknown builtin app %q (have: %s)", kind, kindList())
	}
	arg := func(i int, def uint64) uint64 {
		if i < len(args) {
			return args[i]
		}
		return def
	}
	return b.build(name, arg), nil
}

// BuiltinKinds returns every builtin app kind with its one-line summary,
// keyed by kind.
func BuiltinKinds() map[string]string {
	out := make(map[string]string, len(builtins))
	for k, b := range builtins {
		out[k] = b.summary
	}
	return out
}

func kindList() string {
	kinds := make([]string, 0, len(builtins))
	for k := range builtins {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	s := ""
	for i, k := range kinds {
		if i > 0 {
			s += ", "
		}
		s += k
	}
	return s
}
