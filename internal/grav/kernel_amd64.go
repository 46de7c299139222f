package grav

// haveAVX2 is the one-time CPUID/XGETBV probe: AVX2 present and the OS
// saving YMM state. It is the only thing that selects a kernel path.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// HaveAVX2 is the probe's verdict for the other packages' four-lane
// kernels (internal/vortex), so that one probe selects every path.
func HaveAVX2() bool { return haveAVX2 }

// laneBlock is what the assembly reads its four targets from: x[4]
// y[4] z[4] and eps2 in all four lanes.
type laneBlock [16]float64

// laneSums is what it writes: the four lanes' ax[4] ay[4] az[4]
// pot[4], each accumulated from zero in list order.
type laneSums [16]float64

// pp4 sweeps the n sources (sx, sy, sz, sm) over the block's targets.
//
//go:noescape
func pp4(tg *laneBlock, sx, sy, sz, sm *float64, n int, out *laneSums)

// m2pQuad4 sweeps n monopole+quadrupole cells over the block's
// targets; cols holds the slab columns in the order cm cx cy cz qxx
// qyy qzz qxy qxz qyz.
//
//go:noescape
func m2pQuad4(tg *laneBlock, cols *[10]*float64, n int, out *laneSums)

// mulAdd4 runs n steps of eight independent four-lane
// multiply-then-add chains and stores their lane-wise sum.
//
//go:noescape
func mulAdd4(n int, out *[4]float64)

// load gathers targets [i, i+4) of t into the lanes and returns how
// many of them exist: the spare lanes of a group's last block repeat
// its last target, and laneSums.addTo discards what they compute.
func (b *laneBlock) load(t *Targets, i int) int {
	m := min(4, len(t.X)-i)
	for k := 0; k < 4; k++ {
		j := i + min(k, m-1)
		b[k], b[4+k], b[8+k] = t.X[j], t.Y[j], t.Z[j]
	}
	return m
}

// addTo adds the first m lanes to targets [i, i+m) of t.
func (s *laneSums) addTo(t *Targets, i, m int) {
	for k := 0; k < m; k++ {
		t.AX[i+k] += s[k]
		t.AY[i+k] += s[4+k]
		t.AZ[i+k] += s[8+k]
		t.Pot[i+k] += s[12+k]
	}
}

func pp(t *Targets, sx, sy, sz, sm []float64, eps2 float64) {
	if !haveAVX2 {
		ppGo(t, sx, sy, sz, sm, eps2)
		return
	}
	n := len(sm)
	sx, sy, sz = sx[:n], sy[:n], sz[:n]
	tg := laneBlock{12: eps2, eps2, eps2, eps2}
	var out laneSums
	for i := 0; i < len(t.X); i += 4 {
		m := tg.load(t, i)
		pp4(&tg, &sx[0], &sy[0], &sz[0], &sm[0], n, &out)
		out.addTo(t, i, m)
	}
}

func m2pQuad(t *Targets, l *InteractionList, eps2 float64) {
	if !haveAVX2 {
		m2pQuadGo(t, l, eps2)
		return
	}
	n := len(l.CM)
	cols := [10]*float64{
		&l.CM[0], &l.CX[:n][0], &l.CY[:n][0], &l.CZ[:n][0],
		&l.QXX[:n][0], &l.QYY[:n][0], &l.QZZ[:n][0],
		&l.QXY[:n][0], &l.QXZ[:n][0], &l.QYZ[:n][0],
	}
	tg := laneBlock{12: eps2, eps2, eps2, eps2}
	var out laneSums
	for i := 0; i < len(t.X); i += 4 {
		m := tg.load(t, i)
		m2pQuad4(&tg, &cols, n, &out)
		out.addTo(t, i, m)
	}
}

// PeakProbe executes n steps of eight independent multiply-then-add
// chains, the kernels' instruction mix (four lanes wide when the
// kernels are), and returns the flops that took and a value depending
// on every chain: the roofline's compute-ceiling probe.
func PeakProbe(n int) (flops, witness float64) {
	if !haveAVX2 {
		return peakProbeGo(n)
	}
	var out [4]float64
	mulAdd4(n, &out)
	return 4 * 16 * float64(n), out[0] + out[1] + out[2] + out[3]
}
