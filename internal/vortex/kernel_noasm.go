//go:build !amd64

package vortex

// Without an assembly kernel the Go loops are the production path.

func evalVelPP(t *vTargets, l *vList, s2 float64) uint64 { return evalVelPPGo(t, l, s2) }

func evalVelMono(t *vTargets, cells []cellMoment, s2 float64) uint64 {
	return evalVelMonoGo(t, cells, s2)
}
