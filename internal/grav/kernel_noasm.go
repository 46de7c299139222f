//go:build !amd64

package grav

// Without an assembly kernel no probe runs and the Go loops are the
// production path.
var haveAVX2, haveAVX512 bool

func pp(t *Targets, sx, sy, sz, sm []float64, eps2 float64) { ppGo(t, sx, sy, sz, sm, eps2) }

func m2pQuad(t *Targets, l *InteractionList, eps2 float64) { m2pQuadGo(t, l, eps2) }

// PeakProbe executes n steps of eight independent fused multiply-add
// chains, the kernels' instruction mix, and returns the flops that
// took (and a value depending on every chain, so none is dead code):
// the roofline's compute-ceiling probe.
func PeakProbe(n int) (flops, witness float64) { return peakProbeGo(n) }
