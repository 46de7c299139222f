//go:build !amd64

package grav

import "repro/internal/vec"

// Without an assembly kernel no probe runs and the Go loops are the
// production path.
var haveAVX2, haveAVX512 bool

func pp(t *Targets, o vec.V3, sx, sy, sz, sm []float32, eps2 float32) {
	ppGo(t, o, sx, sy, sz, sm, eps2)
}

func m2pQuad(t *Targets, l *InteractionList, eps2 float32) { m2pQuadGo(t, l, eps2) }

func addRuns(l *InteractionList, runs []Run, at int) { addRunsGo(l, runs, at) }

func addCells(l *InteractionList, cells []*Multipole, at int) { addCellsGo(l, cells, at) }

// PeakProbe executes n steps of eight independent float32 fused
// multiply-add chains (fma32), the kernels' instruction mix, and
// returns the flops that took (and a value depending on every chain, so
// none is dead code): the roofline's compute-ceiling probe.
func PeakProbe(n int) (flops, witness float64) { return peakProbeGo(n) }
