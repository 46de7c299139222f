package tree

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/vec"
)

// forceErrors returns the sorted per-body relative force errors
// |a - a_direct| / |a_direct| of a full tree evaluation against the
// O(N^2) sum (grav.AccelAt, libm sqrt, no tree).
func forceErrors(sys *core.System, d keys.Domain, mac grav.MACParams, exact []vec.V3, eps2 float64) []float64 {
	tr := Build(sys, d, mac, 16)
	tr.Gravity(eps2)
	errs := make([]float64, sys.Len())
	for i := range errs {
		errs[i] = sys.Acc[i].Sub(exact[i]).Norm() / exact[i].Norm()
	}
	sort.Float64s(errs)
	return errs
}

// TestForceAccuracyGate is the test that tells a faster kernel from a
// wrong one: golden digests only pin a kernel to itself. For both MACs
// at both multipole orders, on a Plummer sphere and on a clustered
// cloud, the tree force's median, 99th-percentile and worst relative
// error against the direct sum stay under explicit ceilings: about
// twice what the kernels measure (beside each row), far below what a
// dropped term or a mis-signed quadrupole costs. The last row is the
// benchmark's operating point (Salmon-Warren, 1e-4, quadrupole).
func TestForceAccuracyGate(t *testing.T) {
	const eps2 = 1e-6
	macs := []struct {
		name          string
		mac           grav.MACParams
		p50, p99, max float64
	}{
		// measured, plummer | clustered: 2.2e-3 1.1e-2 4.3e-2 | 1.8e-3 8.7e-3 3.4e-2
		{"bh-mono", grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.7}, 4e-3, 2e-2, 8e-2},
		// 5.5e-4 4.0e-3 1.2e-2 | 5.8e-4 3.3e-3 9.9e-3
		{"bh-quad", grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.7, Quad: true}, 1.2e-3, 8e-3, 2.5e-2},
		// 1.8e-4 6.8e-4 1.6e-3 | 7.1e-6 1.2e-4 1.9e-4
		{"sw-mono", grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4}, 4e-4, 1.4e-3, 3.5e-3},
		// 4.1e-5 1.9e-4 1.3e-3 | 1.4e-6 2.4e-5 4.3e-5
		{"sw-quad", grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}, 1e-4, 3e-4, 2.5e-3},
	}
	ics := []struct {
		name string
		sys  *core.System
		d    keys.Domain
	}{{name: "plummer"}, {name: "clustered"}}
	ics[0].sys, ics[0].d = sorted(ic.Plummer(2000, 1.0, 5))
	ics[1].sys, ics[1].d = cloud(2000, 9)

	for _, c := range ics {
		exact := make([]vec.V3, c.sys.Len())
		for i := range exact {
			exact[i], _ = grav.AccelAt(c.sys.Pos[i], c.sys.Pos, c.sys.Mass, eps2)
		}
		for _, m := range macs {
			errs := forceErrors(c.sys, c.d, m.mac, exact, eps2)
			n := len(errs)
			p50, p99, worst := errs[n/2], errs[n*99/100], errs[n-1]
			t.Logf("%s/%s: p50 %.2e p99 %.2e max %.2e", c.name, m.name, p50, p99, worst)
			if p50 > m.p50 || p99 > m.p99 || worst > m.max {
				t.Errorf("%s/%s: relative force error p50 %.2e p99 %.2e max %.2e, ceilings %.0e %.0e %.0e",
					c.name, m.name, p50, p99, worst, m.p50, m.p99, m.max)
			}
		}
	}
}
