package grav

import "repro/internal/vec"

// haveAVX2 and haveAVX512 are the one-time CPUID/XGETBV probe. They are
// the only thing that selects a kernel path: sixteen-lane blocks where
// AVX-512 is usable, eight-lane blocks where AVX2 and FMA are, the Go
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

// paths is the probe's decision. The eight-lane kernels need AVX2 and
// FMA with the OS saving YMM state; the sixteen-lane ones need all of
// that (they finish a group on an eight-lane block), AVX512F and the
// OS saving the opmask and ZMM state.
func (w cpuWords) paths() (avx2, avx512 bool) {
	const ecx1 = ecx1FMA | ecx1OSXSAVE | ecx1AVX
	avx2 = w.maxLeaf >= 7 && w.ecx1&ecx1 == ecx1 && w.xcr0&xcr0YMM == xcr0YMM && w.ebx7&ebx7AVX2 != 0
	avx512 = avx2 && w.xcr0&xcr0ZMM == xcr0ZMM && w.ebx7&ebx7AVX512F != 0
	return avx2, avx512
}

// laneBlock16 is what the sixteen-lane assembly reads its targets
// from: x[16] y[16] z[16], relative to the list's origin, and eps2 in
// all sixteen lanes. laneBlock8 is the same at eight lanes.
type (
	laneBlock16 [64]float32
	laneBlock8  [32]float32
)

// laneSums16 is what the sixteen-lane assembly writes: the lanes'
// ax[16] ay[16] az[16] pot[16], each accumulated from zero in list
// order over the sweep's sources. laneSums8 is the same at eight lanes.
type (
	laneSums16 [64]float32
	laneSums8  [32]float32
)

// pp16 sweeps sources [lo, hi) of the columns (sx, sy, sz, sm) over the
// block's targets.
//
//go:noescape
func pp16(tg *laneBlock16, sx, sy, sz, sm *float32, lo, hi int, out *laneSums16)

// pp8 is pp16 at eight lanes.
//
//go:noescape
func pp8(tg *laneBlock8, sx, sy, sz, sm *float32, lo, hi int, out *laneSums8)

// m2pQuad16 sweeps cells [lo, hi) of the slab over the block's
// targets; cols holds the slab columns in the order cm cx cy cz qxx qyy
// qzz qxy qxz qyz.
//
//go:noescape
func m2pQuad16(tg *laneBlock16, cols *[10]*float32, lo, hi int, out *laneSums16)

// m2pQuad8 is m2pQuad16 at eight lanes.
//
//go:noescape
func m2pQuad8(tg *laneBlock8, cols *[10]*float32, lo, hi int, out *laneSums8)

// mulAdd8 runs n steps of eight independent eight-lane float32 fused
// multiply-add chains and stores their lane-wise sum; mulAdd16 is the
// same at sixteen lanes.
//
//go:noescape
func mulAdd8(n int, out *[8]float32)

//go:noescape
func mulAdd16(n int, out *[16]float32)

// fmaLanes8 sets c = a*b + c in each of eight lanes with one
// VFMADD231PS, the fused multiply-add the kernels execute: fma32's
// reference (FuzzFMA32).
//
//go:noescape
func fmaLanes8(a, b, c *[8]float32)

func (b *laneBlock16) load(t *Targets, o vec.V3, i int) int {
	return loadLanes(b[0:16], b[16:32], b[32:48], t, o, i)
}

func (b *laneBlock8) load(t *Targets, o vec.V3, i int) int {
	return loadLanes(b[0:8], b[8:16], b[16:24], t, o, i)
}

func (b *laneBlock16) setEps(eps2 float32) {
	for k := 48; k < 64; k++ {
		b[k] = eps2
	}
}

func (b *laneBlock8) setEps(eps2 float32) {
	for k := 24; k < 32; k++ {
		b[k] = eps2
	}
}

func (s *laneSums16) addTo(t *Targets, i, m int) {
	addLanes(s[0:16], s[16:32], s[32:48], s[48:64], t, i, m)
}

func (s *laneSums8) addTo(t *Targets, i, m int) {
	addLanes(s[0:8], s[8:16], s[16:24], s[24:32], t, i, m)
}

// loadLanes gathers targets [i, i+len(x)) of t into the lanes x, y, z,
// relative to o, and returns how many of them exist: the spare lanes of
// a group's last block repeat its last target, and addLanes discards
// what they compute.
func loadLanes(x, y, z []float32, t *Targets, o vec.V3, i int) int {
	n := len(t.X)
	tx, ty, tz := t.X[i:n], t.Y[i:n], t.Z[i:n]
	last := min(len(x), len(tx)) - 1
	if last < 0 {
		return 0
	}
	y, z = y[:len(x)], z[:len(x)]
	for k := range x {
		j := min(k, last)
		x[k], y[k], z[k] = rel32(tx[j], o.X), rel32(ty[j], o.Y), rel32(tz[j], o.Z)
	}
	return last + 1
}

// addLanes folds the first m lanes' float32 sums into targets [i, i+m)
// of t.
func addLanes(ax, ay, az, pot []float32, t *Targets, i, m int) {
	oax, oay, oaz, opot := t.AX[i:i+m], t.AY[i:i+m], t.AZ[i:i+m], t.Pot[i:i+m]
	ax, ay, az, pot = ax[:m], ay[:m], az[:m], pot[:m]
	for k := range oax {
		oax[k] += float64(ax[k])
		oay[k] += float64(ay[k])
		oaz[k] += float64(az[k])
		opot[k] += float64(pot[k])
	}
}

// pp and m2pQuad take sixteen-lane blocks while more than eight targets
// remain and finish with one eight-lane block, so a group pads no more
// lanes than at eight. Each block sweeps the list foldK sources at a
// time and folds the sums after every sweep, as the Go loops do.
func pp(t *Targets, o vec.V3, sx, sy, sz, sm []float32, eps2 float32) {
	if !haveAVX2 {
		ppGo(t, o, sx, sy, sz, sm, eps2)
		return
	}
	n := len(sm)
	x, y, z, m0 := &sx[:n][0], &sy[:n][0], &sz[:n][0], &sm[0]
	i := 0
	if haveAVX512 {
		var tg laneBlock16
		var out laneSums16
		tg.setEps(eps2)
		for ; len(t.X)-i > 8; i += 16 {
			m := tg.load(t, o, i)
			for lo := 0; lo < n; lo += foldK {
				pp16(&tg, x, y, z, m0, lo, min(lo+foldK, n), &out)
				out.addTo(t, i, m)
			}
		}
	}
	var tg laneBlock8
	var out laneSums8
	tg.setEps(eps2)
	for ; i < len(t.X); i += 8 {
		m := tg.load(t, o, i)
		for lo := 0; lo < n; lo += foldK {
			pp8(&tg, x, y, z, m0, lo, min(lo+foldK, n), &out)
			out.addTo(t, i, m)
		}
	}
}

func m2pQuad(t *Targets, l *InteractionList, eps2 float32) {
	if !haveAVX2 {
		m2pQuadGo(t, l, eps2)
		return
	}
	n := len(l.CM)
	cols := [10]*float32{
		&l.CM[0], &l.CX[:n][0], &l.CY[:n][0], &l.CZ[:n][0],
		&l.QXX[:n][0], &l.QYY[:n][0], &l.QZZ[:n][0],
		&l.QXY[:n][0], &l.QXZ[:n][0], &l.QYZ[:n][0],
	}
	i := 0
	if haveAVX512 {
		var tg laneBlock16
		var out laneSums16
		tg.setEps(eps2)
		for ; len(t.X)-i > 8; i += 16 {
			m := tg.load(t, l.Origin, i)
			for lo := 0; lo < n; lo += foldK {
				m2pQuad16(&tg, &cols, lo, min(lo+foldK, n), &out)
				out.addTo(t, i, m)
			}
		}
	}
	var tg laneBlock8
	var out laneSums8
	tg.setEps(eps2)
	for ; i < len(t.X); i += 8 {
		m := tg.load(t, l.Origin, i)
		for lo := 0; lo < n; lo += foldK {
			m2pQuad8(&tg, &cols, lo, min(lo+foldK, n), &out)
			out.addTo(t, i, m)
		}
	}
}

// PeakProbe executes n steps of eight independent float32 fused
// multiply-add chains, the kernels' instruction mix at the kernels'
// width (sixteen lanes, eight, or scalar), and returns the flops that
// took and a value depending on every chain: the roofline's
// compute-ceiling probe.
func PeakProbe(n int) (flops, witness float64) {
	switch {
	case haveAVX512:
		var out [16]float32
		mulAdd16(n, &out)
		w := 0.0
		for _, v := range out {
			w += float64(v)
		}
		return 16 * 16 * float64(n), w
	case haveAVX2:
		var out [8]float32
		mulAdd8(n, &out)
		w := 0.0
		for _, v := range out {
			w += float64(v)
		}
		return 8 * 16 * float64(n), w
	}
	return peakProbeGo(n)
}
