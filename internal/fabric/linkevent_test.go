package fabric

import (
	"fmt"
	"testing"
)

// BenchmarkLinkEvent times the routing work of one link failure and its
// repair on a full fat-tree: one op downs the link, refreshes routes,
// brings the link back up and refreshes again. The classes differ in
// how many destinations route over the link: a host uplink carries one,
// an edge-aggregation link the hosts of one pod, an aggregation-core
// link every destination outside its pod. Each fabric is built once per
// k and shared by its three classes.
func BenchmarkLinkEvent(b *testing.B) {
	for _, k := range []int{8, 16} {
		f := New(1)
		if err := BuildFatTree(f, FatTreeSpec{K: k}); err != nil {
			b.Fatal(err)
		}
		if err := f.InstallBaseRouting(); err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct{ class, a, z string }{
			{"host", "p0-e0-h0", "p0-e0"},
			{"edge-agg", "p0-e0", "p0-a0"},
			{"agg-core", "p0-a0", "c0"},
		} {
			l := f.Net.LinkBetween(c.a, c.z)
			if l == nil {
				b.Fatalf("k=%d: no link %s-%s", k, c.a, c.z)
			}
			b.Run(fmt.Sprintf("%s/k=%d", c.class, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l.SetDown(true)
					if err := f.RefreshRoutes(); err != nil {
						b.Fatal(err)
					}
					l.SetDown(false)
					if err := f.RefreshRoutes(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConverge times one full route convergence on a converged
// fat-tree: RefreshRoutesFull runs every destination's BFS, and since
// nothing moved, rewrites no table. Divided by the destination count,
// it is the BFS cost a link event pays per destination it dirties.
func BenchmarkConverge(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		f := New(1)
		if err := BuildFatTree(f, FatTreeSpec{K: k}); err != nil {
			b.Fatal(err)
		}
		if err := f.InstallBaseRouting(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f.RefreshRoutesFull(); err != nil {
					b.Fatal(err)
				}
			}
			if w := f.RouteStats().DeltaWrites; w != 0 {
				b.Fatalf("full convergence of a converged fabric wrote %d routes", w)
			}
		})
	}
}
