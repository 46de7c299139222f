package grav

import "testing"

// Lanes8 runs the dispatched kernels on eight-lane YMM blocks only
// (four targets × two sources), and the list build on the Go loops, the
// path of an AVX2 host without AVX-512, until tb ends. Tests and
// benchmarks reach that path on an AVX-512 host through this alone.
func Lanes8(tb testing.TB) {
	old := haveAVX512
	haveAVX512 = false
	tb.Cleanup(func() { haveAVX512 = old })
}
