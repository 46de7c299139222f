package grav

// haveAVX2 and haveAVX512 are the one-time CPUID/XGETBV probe. They are
// the only thing that selects a kernel path: eight-lane blocks where
// AVX-512 is usable, four-lane blocks where AVX2 and FMA are, the Go
// loops elsewhere.
var haveAVX2, haveAVX512 = readCPU().paths()

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() uint32

// cpuWords are the words the probe decides on.
type cpuWords struct {
	maxLeaf uint32 // CPUID.0:EAX, the highest basic leaf
	ecx1    uint32 // CPUID.1:ECX
	ebx7    uint32 // CPUID.(7,0):EBX, 0 where leaf 7 does not exist
	xcr0    uint32 // XCR0's low word, 0 where OSXSAVE says XGETBV faults
}

// The feature bits the kernels need.
const (
	ecx1FMA     = 1 << 12
	ecx1OSXSAVE = 1 << 27
	ecx1AVX     = 1 << 28
	ebx7AVX2    = 1 << 5
	ebx7AVX512F = 1 << 16
	xcr0YMM     = 0x6  // the OS saves XMM and YMM state
	xcr0ZMM     = 0xE6 // ... and the opmask and ZMM state too
)

// readCPU executes CPUID, and XGETBV where it exists.
func readCPU() cpuWords {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, w.ecx1, _ = cpuid(1, 0)
	if w.ecx1&ecx1OSXSAVE != 0 {
		w.xcr0 = xgetbv()
	}
	if w.maxLeaf >= 7 {
		_, w.ebx7, _, _ = cpuid(7, 0)
	}
	return w
}

// paths is the probe's decision. The four-lane kernels need AVX2 and
// FMA with the OS saving YMM state; the eight-lane ones need all of
// that (they finish a group on four-lane blocks), AVX512F and the OS
// saving the opmask and ZMM state.
func (w cpuWords) paths() (avx2, avx512 bool) {
	const ecx1 = ecx1FMA | ecx1OSXSAVE | ecx1AVX
	avx2 = w.maxLeaf >= 7 && w.ecx1&ecx1 == ecx1 && w.xcr0&xcr0YMM == xcr0YMM && w.ebx7&ebx7AVX2 != 0
	avx512 = avx2 && w.xcr0&xcr0ZMM == xcr0ZMM && w.ebx7&ebx7AVX512F != 0
	return avx2, avx512
}

// laneBlock is what the four-lane assembly reads its targets from:
// x[4] y[4] z[4] and eps2 in all four lanes. laneBlock8 is the same at
// eight lanes.
type (
	laneBlock  [16]float64
	laneBlock8 [32]float64
)

// laneSums is what the four-lane assembly writes: the lanes' ax[4]
// ay[4] az[4] pot[4], each accumulated from zero in list order.
// laneSums8 is the same at eight lanes.
type (
	laneSums  [16]float64
	laneSums8 [32]float64
)

// pp4 sweeps the n sources (sx, sy, sz, sm) over the block's targets.
//
//go:noescape
func pp4(tg *laneBlock, sx, sy, sz, sm *float64, n int, out *laneSums)

// pp8 is pp4 at eight lanes.
//
//go:noescape
func pp8(tg *laneBlock8, sx, sy, sz, sm *float64, n int, out *laneSums8)

// m2pQuad4 sweeps n monopole+quadrupole cells over the block's
// targets; cols holds the slab columns in the order cm cx cy cz qxx
// qyy qzz qxy qxz qyz.
//
//go:noescape
func m2pQuad4(tg *laneBlock, cols *[10]*float64, n int, out *laneSums)

// m2pQuad8 is m2pQuad4 at eight lanes.
//
//go:noescape
func m2pQuad8(tg *laneBlock8, cols *[10]*float64, n int, out *laneSums8)

// mulAdd4 runs n steps of eight independent four-lane fused
// multiply-add chains and stores their lane-wise sum; mulAdd8 is the
// same at eight lanes.
//
//go:noescape
func mulAdd4(n int, out *[4]float64)

//go:noescape
func mulAdd8(n int, out *[8]float64)

func (b *laneBlock) load(t *Targets, i int) int  { return loadLanes(b[0:4], b[4:8], b[8:12], t, i) }
func (b *laneBlock8) load(t *Targets, i int) int { return loadLanes(b[0:8], b[8:16], b[16:24], t, i) }

func (s *laneSums) addTo(t *Targets, i, m int) {
	addLanes(s[0:4], s[4:8], s[8:12], s[12:16], t, i, m)
}

func (s *laneSums8) addTo(t *Targets, i, m int) {
	addLanes(s[0:8], s[8:16], s[16:24], s[24:32], t, i, m)
}

// loadLanes gathers targets [i, i+len(x)) of t into the lanes x, y, z
// and returns how many of them exist: the spare lanes of a group's
// last block repeat its last target, and addLanes discards what they
// compute.
func loadLanes(x, y, z []float64, t *Targets, i int) int {
	n := len(t.X)
	tx, ty, tz := t.X[i:n], t.Y[i:n], t.Z[i:n]
	last := min(len(x), len(tx)) - 1
	if last < 0 {
		return 0
	}
	y, z = y[:len(x)], z[:len(x)]
	for k := range x {
		j := min(k, last)
		x[k], y[k], z[k] = tx[j], ty[j], tz[j]
	}
	return last + 1
}

// addLanes adds the first m lanes to targets [i, i+m) of t.
func addLanes(ax, ay, az, pot []float64, t *Targets, i, m int) {
	oax, oay, oaz, opot := t.AX[i:i+m], t.AY[i:i+m], t.AZ[i:i+m], t.Pot[i:i+m]
	ax, ay, az, pot = ax[:m], ay[:m], az[:m], pot[:m]
	for k := range oax {
		oax[k] += ax[k]
		oay[k] += ay[k]
		oaz[k] += az[k]
		opot[k] += pot[k]
	}
}

// pp and m2pQuad take eight-lane blocks while more than four targets
// remain and finish with four-lane ones, so a group pads no more lanes
// than at four.
func pp(t *Targets, sx, sy, sz, sm []float64, eps2 float64) {
	if !haveAVX2 {
		ppGo(t, sx, sy, sz, sm, eps2)
		return
	}
	n := len(sm)
	x, y, z, m0 := &sx[:n][0], &sy[:n][0], &sz[:n][0], &sm[0]
	i := 0
	if haveAVX512 {
		tg := laneBlock8{24: eps2, eps2, eps2, eps2, eps2, eps2, eps2, eps2}
		var out laneSums8
		for ; len(t.X)-i > 4; i += 8 {
			m := tg.load(t, i)
			pp8(&tg, x, y, z, m0, n, &out)
			out.addTo(t, i, m)
		}
	}
	tg := laneBlock{12: eps2, eps2, eps2, eps2}
	var out laneSums
	for ; i < len(t.X); i += 4 {
		m := tg.load(t, i)
		pp4(&tg, x, y, z, m0, n, &out)
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
	i := 0
	if haveAVX512 {
		tg := laneBlock8{24: eps2, eps2, eps2, eps2, eps2, eps2, eps2, eps2}
		var out laneSums8
		for ; len(t.X)-i > 4; i += 8 {
			m := tg.load(t, i)
			m2pQuad8(&tg, &cols, n, &out)
			out.addTo(t, i, m)
		}
	}
	tg := laneBlock{12: eps2, eps2, eps2, eps2}
	var out laneSums
	for ; i < len(t.X); i += 4 {
		m := tg.load(t, i)
		m2pQuad4(&tg, &cols, n, &out)
		out.addTo(t, i, m)
	}
}

// PeakProbe executes n steps of eight independent fused multiply-add
// chains, the kernels' instruction mix at the kernels' width (eight
// lanes, four, or scalar), and returns the flops that took and a value
// depending on every chain: the roofline's compute-ceiling probe.
func PeakProbe(n int) (flops, witness float64) {
	switch {
	case haveAVX512:
		var out [8]float64
		mulAdd8(n, &out)
		w := 0.0
		for _, v := range out {
			w += v
		}
		return 8 * 16 * float64(n), w
	case haveAVX2:
		var out [4]float64
		mulAdd4(n, &out)
		return 4 * 16 * float64(n), out[0] + out[1] + out[2] + out[3]
	}
	return peakProbeGo(n)
}
