package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile is the nearest-rank p-quantile (0 < p <= 1) of vals; it
// does not modify vals. Empty input gives 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// samplesBeyond is how many of n samples lie above the nearest-rank
// p-quantile. A tail percentile is a statement about the system only
// when at least minBeyond samples lie beyond it; with fewer it is a
// statement about one or two unlucky samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

const minBeyond = 10

// trusted reports whether the p-quantile of n samples has the
// minBeyond samples above it that the reporting rule asks for.
func trusted(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return sum(vals) / float64(len(vals))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The machine-speed witness. The dev box is a 2-vCPU VM whose speed for
// issue-bound code changes by up to 1.5x for minutes at a time, and
// whose two vCPUs are at times hyperthread siblings (README.md, noise
// study): as measured, the median of ten 20-second runs moved 30-47%
// between two sets half an hour apart. A fixed, benchmark-owned loop
// that touches none of the program's code is therefore timed beside
// every timed interval, and the part of the interval's wall that the
// process spent on-CPU is rescaled to the witness's reference speed.
// ISSUE 12 wanted the witness to flag noisy runs only; README.md
// ("the witness as a ruler") has the measurements behind going further.

// witnessRef is the witness's time on one thread of the quiet dev
// box: machine speed 1. It only sets the scale of the reported times.
const witnessRef = 17 * time.Millisecond

const witnessLen = 4096 // float64s: 32 KiB, L1-resident

var (
	witnessData = func() []float64 {
		d := make([]float64, witnessLen)
		for i := range d {
			d[i] = 1 / float64(i+3)
		}
		return d
	}()
	witnessSink [8]float64
)

// witnessLoop is eight independent multiply-add chains over an
// L1-resident array: floating-point work bound by issue rate, as the
// interaction kernels are, and nothing a compiler can fold away. The
// box's slow phases hit such code hardest (a single dependent chain
// does not feel them at all), and of the loops tried it is the one
// that tracks the program's own slowdown (README.md).
func witnessLoop() float64 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	d := witnessData
	for rep := 0; rep < 12000; rep++ {
		for i := 0; i+8 <= len(d); i += 8 {
			s0 = s0*0.999999 + d[i]
			s1 = s1*0.999999 + d[i+1]
			s2 = s2*0.999999 + d[i+2]
			s3 = s3*0.999999 + d[i+3]
			s4 = s4*0.999999 + d[i+4]
			s5 = s5*0.999999 + d[i+5]
			s6 = s6*0.999999 + d[i+6]
			s7 = s7*0.999999 + d[i+7]
		}
	}
	return s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
}

// witness times the loop on threads threads at once, start to the last
// one's finish.
func witness(threads int) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 1; c < threads; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			witnessSink[c%len(witnessSink)] = witnessLoop()
		}()
	}
	witnessSink[0] = witnessLoop()
	wg.Wait()
	return time.Since(t0)
}

// probe is one reading of the box's speed: the witness on one thread,
// and on every processor at once. The two differ by up to 2x on the
// dev box, whose two vCPUs are at times hyperthread siblings.
type probe struct{ one, all time.Duration }

func takeProbe() probe {
	pr := probe{one: witness(1)}
	pr.all = pr.one
	if p := runtime.GOMAXPROCS(0); p > 1 {
		pr.all = witness(p)
	}
	return pr
}

// mid is the mean of two probes: the reading for the interval they
// bracket.
func (a probe) mid(b probe) probe { return probe{(a.one + b.one) / 2, (a.all + b.all) / 2} }

// at is the witness time with par threads busy, 1 <= par <=
// GOMAXPROCS, interpolated between the two readings.
func (pr probe) at(par float64) time.Duration {
	p := float64(runtime.GOMAXPROCS(0))
	if p <= 1 || par <= 1 {
		return pr.one
	}
	f := (math.Min(par, p) - 1) / (p - 1)
	return pr.one + time.Duration(f*float64(pr.all-pr.one))
}

// atRefSpeed rescales a measured interval to machine speed 1, given the
// probe taken beside it and how many threads the interval can keep
// busy. The interval's own mean parallelism, cpu/wall, says which
// witness reading applies. Only time on-CPU can have been stretched by
// a slow box: with the threads busy at once that is cpu/threads of the
// wall (all of it when the interval is CPU-bound), and the rest --
// waiting on injected latency -- is left alone. It returns the reading
// used too.
func atRefSpeed(wall, cpu float64, threads int, pr probe) (normWall, normCPU float64, reading time.Duration) {
	reading = pr.at(cpu / wall)
	speed := float64(witnessRef) / float64(reading)
	busy := math.Min(wall, cpu/float64(min(threads, runtime.GOMAXPROCS(0))))
	return wall - busy*(1-speed), cpu * speed, reading
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer; a zero
	// reading would show as a zero metric.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// memDelta measures the allocator over a window (traced runs only:
// ReadMemStats stops the world).
type memDelta struct{ m0 runtime.MemStats }

func (d *memDelta) start() { runtime.ReadMemStats(&d.m0) }

// stop returns the KiB allocated and the GC cycles since start.
func (d *memDelta) stop() (allocKB, gcs float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-d.m0.TotalAlloc) / 1024, float64(m.NumGC - d.m0.NumGC)
}
