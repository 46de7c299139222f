package grav

import (
	"unsafe"

	"repro/internal/vec"
)

// haveAVX2 and haveAVX512 are the one-time CPUID/XGETBV probe. They are
// the only thing that selects a kernel path: blocks of eight targets ×
// two sources where AVX-512 is usable, four targets × two sources where
// AVX2 and FMA are, the Go loops elsewhere.
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

// paths is the probe's decision. The YMM kernels need AVX2 and FMA with
// the OS saving YMM state; the ZMM ones need AVX512F and the OS saving
// the opmask and ZMM state, and are only taken where the YMM ones run
// too, so that one verdict, haveAVX2, says whether any kernel does.
func (w cpuWords) paths() (avx2, avx512 bool) {
	const ecx1 = ecx1FMA | ecx1OSXSAVE | ecx1AVX
	avx2 = w.maxLeaf >= 7 && w.ecx1&ecx1 == ecx1 && w.xcr0&xcr0YMM == xcr0YMM && w.ebx7&ebx7AVX2 != 0
	avx512 = avx2 && w.xcr0&xcr0ZMM == xcr0ZMM && w.ebx7&ebx7AVX512F != 0
	return avx2, avx512
}

// laneBlock16 is what the ZMM pair kernels read their targets from,
// sixteen lanes to a column: eight targets, target k in lanes 2k and
// 2k+1, as x y z relative to the list's origin, and eps2 in every lane.
// laneBlock8 is the same at eight lanes, four targets, for the YMM
// kernels, and four columns more where they keep their sums across an
// odd last source.
type (
	laneBlock16 [4 * 16]float32
	laneBlock8  [8 * 8]float32
)

// pp8x2 sweeps the n sources of the columns (sx, sy, sz, sm) over the
// block's targets in chunks of foldK, and folds each chunk's lane pairs
// into targets [0, m) of the output columns out (ax ay az pot) as fold
// does: even + odd, then that added to the output, both in float64.
//
//go:noescape
func pp8x2(b *laneBlock16, sx, sy, sz, sm *float32, n int, out *[4]*float64, m int)

// pp4x2 is pp8x2 on a YMM block.
//
//go:noescape
func pp4x2(b *laneBlock8, sx, sy, sz, sm *float32, n int, out *[4]*float64, m int)

// m2pQuad8x2 is pp8x2 for the n cells of the slab; cols holds the slab
// columns in the order cm cx cy cz qxx qyy qzz qxy qxz qyz.
//
//go:noescape
func m2pQuad8x2(b *laneBlock16, cols *[10]*float32, n int, out *[4]*float64, m int)

// m2pQuad4x2 is m2pQuad8x2 on a YMM block.
//
//go:noescape
func m2pQuad4x2(b *laneBlock8, cols *[10]*float32, n int, out *[4]*float64, m int)

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

// runs8 converts the bodies of the nr runs from runs into the source
// columns cols (sx sy sz sm) from row at on, as addRunsGo does: eight
// bodies at a time, the three ZMM loads of their positions less the
// origin in the same interleaving, rounded (VCVTPD2PS), the x, y and z
// lanes picked out by VPERMI2PS, and a run's last block masked. The
// columns must hold every body of the runs from row at on, and a run's
// Mass at least its Pos.
//
//go:noescape
func runs8(runs *Run, nr int, o *vec.V3, cols *[4]*float32, at int)

// cells8 gathers the n cells (a multiple of eight) cells points at into
// the slab columns cols (in the order of m2pQuad8x2's) from row at on,
// as addCellsGo does: each Multipole's first eight moments loaded into
// a ZMM register, the origin subtracted from its centre-of-mass lanes
// alone, rounded (VCVTPD2PS) and transposed eight by eight, the last
// two moments gathered in pairs by masked loads.
//
//go:noescape
func cells8(cells **Multipole, n int, o *vec.V3, cols *[10]*float32, at int)

// addRuns and addCells are the list build's lane routines where
// AVX-512 is usable, the Go loops elsewhere. The list's columns were
// grown to hold the batch from row at on, so the column pointers are
// taken at their bases; the last cells short of eight go through the
// Go loop.
func addRuns(l *InteractionList, runs []Run, at int) {
	if !haveAVX512 || len(runs) == 0 {
		addRunsGo(l, runs, at)
		return
	}
	cols := [4]*float32{unsafe.SliceData(l.SX), unsafe.SliceData(l.SY), unsafe.SliceData(l.SZ), unsafe.SliceData(l.SM)}
	runs8(unsafe.SliceData(runs), len(runs), &l.Origin, &cols, at)
}

func addCells(l *InteractionList, cells []*Multipole, at int) {
	if !haveAVX512 {
		addCellsGo(l, cells, at)
		return
	}
	n8 := len(cells) &^ 7
	if n8 > 0 {
		cols := [10]*float32{
			unsafe.SliceData(l.CM), unsafe.SliceData(l.CX), unsafe.SliceData(l.CY), unsafe.SliceData(l.CZ),
			unsafe.SliceData(l.QXX), unsafe.SliceData(l.QYY), unsafe.SliceData(l.QZZ),
			unsafe.SliceData(l.QXY), unsafe.SliceData(l.QXZ), unsafe.SliceData(l.QYZ),
		}
		cells8(unsafe.SliceData(cells), n8, &l.Origin, &cols, at)
	}
	addCellsGo(l, cells[n8:], at+n8)
}

// sweep loads every block of t's targets into the lane pairs of in (x
// y z eps2, a quarter of it each), points out at the block's output
// slots and runs kernel on it, which sweeps the list and folds into
// the first m of them. The spare pairs of a group's last block repeat
// its last target, and nothing folds what they compute.
func sweep(in []float32, out *[4]*float64, t *Targets, o vec.V3, eps2 float32, kernel func(m int)) {
	w := len(in) / 4
	x, y, z, eps := in[0:w], in[w:2*w], in[2*w:3*w], in[3*w:4*w]
	y, z = y[:len(x)], z[:len(x)]
	for k := range eps {
		eps[k] = eps2
	}
	for i := 0; i < len(t.X); i += w / 2 {
		tx := t.X[i:]
		ty, tz := t.Y[i:][:len(tx)], t.Z[i:][:len(tx)]
		m := min(w/2, len(tx))
		for l := range x {
			j := min(l/2, m-1)
			x[l], y[l], z[l] = rel32(tx[j], o.X), rel32(ty[j], o.Y), rel32(tz[j], o.Z)
		}
		*out = [4]*float64{&t.AX[i], &t.AY[i], &t.AZ[i], &t.Pot[i]}
		kernel(m)
	}
}

// pp and m2pQuad run the pair kernels on every block of eight targets
// where AVX-512 is usable, of four where AVX2 is.
func pp(t *Targets, o vec.V3, sx, sy, sz, sm []float32, eps2 float32) {
	if !haveAVX2 {
		ppGo(t, o, sx, sy, sz, sm, eps2)
		return
	}
	n := len(sm)
	x, y, z, m0 := &sx[:n][0], &sy[:n][0], &sz[:n][0], &sm[0]
	var out [4]*float64
	if haveAVX512 {
		var b laneBlock16
		sweep(b[:], &out, t, o, eps2, func(m int) { pp8x2(&b, x, y, z, m0, n, &out, m) })
		return
	}
	var b laneBlock8
	sweep(b[:32], &out, t, o, eps2, func(m int) { pp4x2(&b, x, y, z, m0, n, &out, m) })
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
	var out [4]*float64
	if haveAVX512 {
		var b laneBlock16
		sweep(b[:], &out, t, l.Origin, eps2, func(m int) { m2pQuad8x2(&b, &cols, n, &out, m) })
		return
	}
	var b laneBlock8
	sweep(b[:32], &out, t, l.Origin, eps2, func(m int) { m2pQuad4x2(&b, &cols, n, &out, m) })
}

// PeakProbe executes n steps of eight independent float32 fused
// multiply-add chains, the kernels' instruction mix at the kernels'
// register width (sixteen lanes, eight, or scalar), and returns the flops that
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
