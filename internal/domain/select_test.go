package domain

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// hash32 is the deterministic per-(body, step) noise of the selection
// tests: it depends on nothing a rank could see differently.
func hash32(id int64, step int) uint64 {
	h := uint64(id)*0x9e3779b97f4a7c15 + uint64(step+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return h >> 32
}

// selCase is one row of the selection matrix: where bodies start and
// how positions and work are reshaped before every decomposition.
type selCase struct {
	name string
	n    int
	// home gives body i's initial rank.
	home func(i, n, np int) int
	// shape runs after the common position drift.
	shape func(sys *core.System, step int)
}

func blockHome(i, n, np int) int { return i * np / n }

func setWork(f func(id int64, step int) uint64) func(*core.System, int) {
	return func(sys *core.System, step int) {
		for i := range sys.Work {
			sys.Work[i] = f(sys.ID[i], step)
		}
	}
}

var selCases = []selCase{
	{name: "uniform-work", n: 700, home: blockHome,
		shape: setWork(func(int64, int) uint64 { return 1 })},
	{name: "random-work", n: 700, home: blockHome,
		shape: setWork(func(id int64, step int) uint64 { return 1 + hash32(id, step)%1000 })},
	{name: "zero-work-bodies", n: 700, home: blockHome,
		shape: setWork(func(id int64, step int) uint64 {
			if hash32(id, step)%3 == 0 {
				return 0
			}
			return uint64(1 + id%5)
		})},
	{name: "total-work-zero", n: 300, home: blockHome,
		shape: setWork(func(int64, int) uint64 { return 0 })},
	{name: "one-key", n: 300, home: blockHome,
		shape: func(sys *core.System, step int) {
			for i := range sys.Pos {
				sys.Pos[i] = vec.V3{X: 0.25, Y: 0.5, Z: 0.75}
				sys.Work[i] = 1 + uint64(sys.ID[i]%3)
			}
		}},
	// Five distinct positions, equal work: every target falls inside
	// a run of equal keys.
	{name: "duplicate-keys", n: 600, home: blockHome,
		shape: func(sys *core.System, step int) {
			for i := range sys.Pos {
				k := float64((sys.ID[i] + int64(step)) % 5)
				sys.Pos[i] = vec.V3{X: k / 5, Y: 1 - k/5, Z: k / 7}
				sys.Work[i] = 1
			}
		}},
	{name: "fewer-than-samples", n: 20, home: blockHome,
		shape: setWork(func(id int64, step int) uint64 { return 1 + hash32(id, step)%4 })},
	{name: "empty-ranks", n: 500, home: func(i, n, np int) int { return blockHome(i, n, (np+1)/2) * 2 },
		shape: setWork(func(id int64, step int) uint64 { return 1 + hash32(id, step)%9 })},
	{name: "one-rank", n: 500, home: func(i, n, np int) int { return np - 1 },
		shape: setWork(func(id int64, step int) uint64 { return 1 + hash32(id, step)%9 })},
	// Ownership no exchange could have left behind: every rank's
	// bodies span the whole curve, more of them than two windows hold,
	// so every splitter lies in every rank's unpublished interior.
	{name: "scattered-by-id", n: 2400, home: func(i, n, np int) int { return i % np },
		shape: setWork(func(id int64, step int) uint64 { return 1 + hash32(id, step)%9 })},
	// Seven distinct keys in runs longer than a window: the edge of
	// every published window falls inside a run of equal keys.
	{name: "runs-over-window-edge", n: 2100, home: blockHome,
		shape: func(sys *core.System, step int) {
			for i := range sys.Pos {
				k := float64((sys.ID[i] + int64(step)) % 7)
				sys.Pos[i] = vec.V3{X: k / 7, Y: 1 - k/7, Z: k / 9}
				sys.Work[i] = 1 + uint64(sys.ID[i]%2)
			}
		}},
	// Bodies barely move but the work does: on the last step one half
	// of space weighs eight times the other, and every splitter moves
	// past the windows.
	{name: "splitter-past-window", n: 2400, home: blockHome,
		shape: func(sys *core.System, step int) {
			for i := range sys.Pos {
				sys.Work[i] = 1
				if step == 2 && sys.Pos[i].X > 0.1 {
					sys.Work[i] = 8
				}
			}
		}},
}

// prefixWork returns pw with pw[i] = work of bodies [0, i).
func prefixWork(work []uint64) []uint64 {
	pw := make([]uint64, len(work)+1)
	for i, w := range work {
		pw[i+1] = pw[i] + w
	}
	return pw
}

// sameOnAllRanks reports whether every rank passed the same x (a
// collective, for tests).
func sameOnAllRanks(c *msg.Comm, x int) bool {
	r := msg.Allreduce(c, [2]int{x, x}, func(a, b [2]int) [2]int { return [2]int{min(a[0], b[0]), max(a[1], b[1])} }, 16)
	return r[0] == r[1]
}

// Both searches must return the reference bisection's splits bit for
// bit whatever the body layout: the full one in four collectives, the
// one-allgather search wherever it says it settled every splitter --
// which every rank must say or deny together. A persistent Decomposer
// runs the second before the first from its second call on, so its
// splitters cost one collective or five.
func TestSelectMatchesBisection(t *testing.T) {
	const steps = 3
	ics := []struct {
		name string
		gen  func(n int) *core.System
	}{
		{"plummer", func(n int) *core.System { return ic.Plummer(n, 1, 5) }},
		{"clustered", func(n int) *core.System { return clustered(n, 5) }},
	}
	var hinted, missed atomic.Int64
	for _, np := range []int{1, 2, 3, 4, 8} {
		for _, gen := range ics {
			for _, tc := range selCases {
				label := fmt.Sprintf("np=%d/%s/%s", np, gen.name, tc.name)
				global := gen.gen(tc.n)
				msg.Run(np, func(c *msg.Comm) {
					local := core.New(0)
					local.EnableDynamics()
					for i := 0; i < tc.n; i++ {
						if tc.home(i, tc.n, np) == c.Rank() {
							local.AppendFrom(global, i)
						}
					}
					dec := new(Decomposer)
					for s := 0; s < steps; s++ {
						// Small drift on the even steps, a large
						// one on the odd.
						scale := 1e-5
						if s%2 == 1 {
							scale = 0.3
						}
						for i := range local.Pos {
							h := hash32(local.ID[i], s)
							f := func(shift uint) float64 { return (float64((h>>shift)%1024)/1024 - 0.5) * scale }
							local.Pos[i] = local.Pos[i].Add(vec.V3{X: f(0), Y: f(10), Z: f(20)})
						}
						tc.shape(local, s)
						d := GlobalDomain(c, local)

						ref := core.New(0)
						for i := 0; i < local.Len(); i++ {
							ref.AppendFrom(local, i)
						}
						ref.AssignKeys(d)
						ref.SortByKey()
						pw := prefixWork(ref.Work)
						want := bisectSplits(c, ref.Key, pw, np)

						// The one-allgather search on this ownership:
						// whatever home dealt on step 0, what the last
						// exchange left, drifted, on the others.
						if np > 1 {
							got, ok := new(Decomposer).hintedSplits(c, ref.Key, pw, np)
							if !sameOnAllRanks(c, len(got)) {
								t.Errorf("%s step %d rank %d: ranks disagree on whether the one-allgather search settled (here: %v)", label, s, c.Rank(), ok)
							}
							if ok && !slices.Equal(got, want) {
								t.Errorf("%s step %d rank %d: one-allgather splits\n got %x\nwant %x", label, s, c.Rank(), got, want)
							}
							if ok {
								hinted.Add(1)
							} else {
								missed.Add(1)
							}
							if tc.name == "scattered-by-id" && s == 0 && ok {
								t.Errorf("%s rank %d: settled splitters inside every rank's unpublished interior", label, c.Rank())
							}
						}

						res := dec.Decompose(c, local, d)
						local = res.Sys
						if !slices.Equal(res.Splits, want) {
							t.Errorf("%s step %d rank %d: splits\n got %x\nwant %x", label, s, c.Rank(), res.Splits, want)
						}
						search := dec.Last.Rounds
						switch {
						case np == 1 && search == 0:
						case np > 1 && s == 0 && search == 4:
						case np > 1 && s > 0 && (search == 1 || search == 5):
						default:
							t.Errorf("%s step %d rank %d: %d collectives in the search", label, s, c.Rank(), search)
						}
						if !sameOnAllRanks(c, search) {
							t.Errorf("%s step %d rank %d: ranks took different searches (here: %d collectives)", label, s, c.Rank(), search)
						}
						if tc.name == "splitter-past-window" && np == 4 && s == 2 && search != 5 {
							t.Errorf("%s rank %d: a splitter that moved past the windows was found in %d collectives, want 5", label, c.Rank(), search)
						}
					}
				})
				if t.Failed() {
					t.FailNow()
				}
			}
		}
	}
	t.Logf("settled %d, gave up %d", hinted.Load(), missed.Load())
	if hinted.Load() == 0 || missed.Load() == 0 {
		t.Errorf("the one-allgather search settled %d rank-steps and gave up on %d: the matrix must hold both", hinted.Load(), missed.Load())
	}
}

// decodeFuzzWorld turns fuzz bytes into a world: np ranks, each with a
// key-sorted body list (offset, work). Byte 0 picks np (below 0x80, 1
// to 8; from 0x80 up, an even np from 2 to 256), byte 1 the bit
// position of the 16-bit offsets (so runs collide or spread over the
// curve); then four bytes per body: rank, work, offset high and low.
// Work is a small non-negative integer or zero, offsets 0xffff map to
// the last representable offset.
func decodeFuzzWorld(data []byte) (np int, ks [][]keys.Key, work [][]uint64) {
	if len(data) < 2 {
		return 1, make([][]keys.Key, 1), make([][]uint64, 1)
	}
	np = 1 + int(data[0]%8)
	if data[0] >= 0x80 {
		np = 2 * (int(data[0]) - 0x7f)
	}
	shift := uint(data[1] % 48)
	type body struct {
		off, work uint64
	}
	bodies := make([][]body, np)
	for b := data[2:]; len(b) >= 4; b = b[4:] {
		off := (uint64(b[2])<<8 | uint64(b[3])) << shift
		if b[2] == 0xff && b[3] == 0xff {
			off = tree.EndOffset - 1
		}
		r := int(b[0]) % np
		bodies[r] = append(bodies[r], body{off, uint64(b[1] / 8)})
	}
	ks = make([][]keys.Key, np)
	work = make([][]uint64, np)
	for r, bs := range bodies {
		slices.SortStableFunc(bs, func(a, b body) int { return cmp.Compare(a.off, b.off) })
		for _, b := range bs {
			ks[r] = append(ks[r], keys.Key(b.off|1<<63))
			work[r] = append(work[r], b.work)
		}
	}
	return np, ks, work
}

// fuzzWorld encodes a world for decodeFuzzWorld: n bodies on np ranks
// (np at most 8, or even and at most 256), rank, work byte and 16-bit
// offset by the functions given.
func fuzzWorld(np, shift, n int, rank, work, off func(i int) int) []byte {
	b := []byte{byte(np - 1), byte(shift)}
	if np > 8 {
		b[0] = byte(0x7f + np/2)
	}
	for i := 0; i < n; i++ {
		o := off(i)
		b = append(b, byte(rank(i)), byte(work(i)), byte(o>>8), byte(o))
	}
	return b
}

// FuzzSelectSplits: for any world the decoder can describe, both
// searches equal the reference bisection -- the full one always, the
// one-allgather search whenever it claims to have settled every
// splitter, a claim all ranks make or none -- a warm decomposer's
// selection costs one collective or five accordingly, and nothing
// panics or leaves a rank waiting (the watchdog would abort the world).
// Where the one-allgather search settles, the exchange its windows plan
// is the same on every rank and reaches every receiver of every body
// (checkPlan).
func FuzzSelectSplits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 40})
	f.Add([]byte{3, 40, 0, 8, 0, 1, 1, 8, 0, 1, 2, 8, 0, 1, 3, 8, 0, 1})             // one key on every rank
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0xff, 0xff})                    // zero work, both curve ends
	f.Add([]byte{7, 20, 0, 200, 1, 2, 0, 16, 1, 2, 0, 16, 1, 3, 5, 16, 9, 9})        // a heavy body holding several targets
	f.Add([]byte{2, 47, 0, 9, 0, 0, 1, 9, 0x7f, 0xff, 2, 9, 0x80, 0, 0, 9, 0xff, 0}) // wide offsets
	long := []byte{4, 13}
	for i := 0; i < 400; i++ {
		h := hash32(int64(i), 0)
		long = append(long, byte(h), byte(h>>8), byte(h>>16)&3, byte(h>>24))
	}
	f.Add(long)
	// Worlds with more bodies per rank than two windows hold, so ranks
	// have an unpublished interior. 1600 bodies on 4 ranks, offsets
	// rising with i unless said otherwise.
	const big = 1600
	h := func(i int) int { return int(hash32(int64(i), 1)) }
	rising := func(i int) int { return i * 40 }
	owner := func(i int) int { return i * 4 / big }
	some := func(i int) int { return 8 + h(i)%64 }
	f.Add(fuzzWorld(4, 20, big, owner, some, rising))                                        // settled ownership
	f.Add(fuzzWorld(4, 20, big, func(i int) int { return i % 4 }, some, rising))             // scattered by ID
	f.Add(fuzzWorld(4, 20, big, func(i int) int { return owner(i) &^ 1 }, some, rising))     // empty ranks
	f.Add(fuzzWorld(4, 20, big, owner, some, func(int) int { return 77 }))                   // one key
	f.Add(fuzzWorld(4, 20, big, owner, some, func(i int) int { return (i / 90) * 500 }))     // runs of equal keys over the window edges
	f.Add(fuzzWorld(4, 20, big, owner, func(i int) int { return 8 * (i % 2) }, rising))      // zero-work bodies
	f.Add(fuzzWorld(4, 20, big, owner, func(int) int { return 0 }, rising))                  // all-zero work
	f.Add(fuzzWorld(4, 20, big, owner, func(i int) int { return 8 + 240*(i/1000) }, rising)) // splitters far from where ranks meet
	f.Add(fuzzWorld(4, 20, big, func(i int) int {                                            // a few strays far from home
		if i%97 == 0 {
			return (owner(i) + 2) % 4
		}
		return owner(i)
	}, some, rising))
	// Worlds for the exchange plan the windows make, settled but for the
	// one whose interior straddles a splitter, which the search declines.
	f.Add(fuzzWorld(4, 20, 90, func(i int) int { return []int{0, 1, 3}[i/30] }, func(i int) int { // rank 2 empty and left so: one body carries two targets
		if i == 59 {
			return 31 * 8
		}
		return 8
	}, func(i int) int { return i * 100 }))
	f.Add(fuzzWorld(4, 20, 4*2*hintWindow, func(i int) int { return i / (2 * hintWindow) }, some, rising)) // every body published
	f.Add(fuzzWorld(4, 0, big, owner, func(int) int { return 8 }, func(i int) int { return i }))           // each splitter the offset of the body above
	f.Add(fuzzWorld(4, 20, big, func(i int) int {                                                          // rank 1's interior straddles what ranks 1 and 2 held
		if i >= big/2 && i < big/2+big/8 {
			return 1
		}
		return owner(i)
	}, some, rising))
	f.Add(fuzzWorld(4, 20, big, func(i int) int { // more strays, each one rank down, rank 0's to rank 3
		if i%23 == 0 {
			return (owner(i) + 3) % 4
		}
		return owner(i)
	}, some, rising))
	// Worlds at np = 64 and 256, where a sweep per rank over every
	// rank's candidates was quadratic in np. At np = 64: every rank with
	// more bodies than two windows hold (so every rank has an unpublished
	// interior) and the splitters where ranks meet, which the search
	// settles; every other rank empty, every rank's interior spanning the
	// curve, which it declines; a few strays. At np = 256, kept small
	// enough for -race: every rank's bodies all published, every other
	// rank empty, and every eighth rank with an interior among ranks of
	// two bodies.
	const wide = 2*hintWindow + 8
	n64 := 64 * wide
	owner64 := func(i int) int { return i * 64 / n64 }
	id := func(i int) int { return i }
	f.Add(fuzzWorld(64, 20, n64, owner64, func(i int) int { return 8 + 8*(i%2) }, id))
	f.Add(fuzzWorld(64, 20, n64, func(i int) int { return owner64(i) &^ 1 }, some, id))
	f.Add(fuzzWorld(64, 20, n64, func(i int) int { return i % 64 }, some, id))
	f.Add(fuzzWorld(64, 20, n64, func(i int) int {
		if i%97 == 0 {
			return (owner64(i) + 32) % 64
		}
		return owner64(i)
	}, some, id))
	f.Add(fuzzWorld(256, 20, 256*16, func(i int) int { return i / 16 }, some, id))
	f.Add(fuzzWorld(256, 20, 128*32, func(i int) int { return i / 32 * 2 }, some, id))
	f.Add(fuzzWorld(256, 20, 32*(wide+14), func(i int) int { // rank 8k holds wide bodies, ranks 8k+1 to 8k+7 two each
		k, j := i/(wide+14), i%(wide+14)
		if j < wide {
			return 8 * k
		}
		return 8*k + 1 + (j-wide)/2
	}, some, id))
	f.Fuzz(func(t *testing.T, data []byte) {
		np, ks, work := decodeFuzzWorld(data)
		settled := make([]bool, np)
		plans := make([][]bool, np)
		w := msg.NewWorld(np)
		w.StartWatchdog(msg.WatchdogConfig{Quiet: 5 * time.Second, Out: io.Discard})
		err := w.RunErr(func(c *msg.Comm) {
			r := c.Rank()
			pw := prefixWork(work[r])
			want := bisectSplits(c, ks[r], pw, np)
			var dc Decomposer
			got := dc.selectSplits(c, ks[r], pw, np)
			if !slices.Equal(got, want) {
				t.Errorf("rank %d: splits\n got %x\nwant %x", r, got, want)
			}
			if np > 1 && dc.Last.Rounds != 4 {
				t.Errorf("rank %d: %d collectives, want 4", r, dc.Last.Rounds)
			}
			if np == 1 {
				return
			}
			hinted := new(Decomposer)
			got, ok := hinted.hintedSplits(c, ks[r], pw, np)
			if ok && !slices.Equal(got, want) {
				t.Errorf("rank %d: one-allgather splits\n got %x\nwant %x", r, got, want)
			}
			settled[r] = ok
			if ok {
				plans[r] = checkPlan(t, hinted, got, ks[r], r)
			}
			// The selection as a decomposer runs it after an exchange.
			warm := Decomposer{warm: np}
			if got := warm.selectSplits(c, ks[r], pw, np); !slices.Equal(got, want) {
				t.Errorf("rank %d: warm splits\n got %x\nwant %x", r, got, want)
			}
			if wantRounds := map[bool]int{true: 1, false: 5}[ok]; warm.Last.Rounds != wantRounds {
				t.Errorf("rank %d: warm selection took %d collectives, want %d", r, warm.Last.Rounds, wantRounds)
			}
		})
		if err != nil {
			t.Fatalf("world aborted: %v", err)
		}
		for r := range settled {
			if settled[r] != settled[0] {
				t.Fatalf("rank %d settled=%v, rank 0 settled=%v: ranks took different branches", r, settled[r], settled[0])
			}
			if !slices.Equal(plans[r], plans[0]) {
				t.Fatalf("rank %d planned the exchange\n%v\nrank 0\n%v", r, plans[r], plans[0])
			}
		}
	})
}

// checkPlan holds the exchange plan of a settled one-allgather search on
// rank r to what r's bodies ks need, and returns it, row-major by
// (sender, receiver), for the comparison across ranks: every receiver r
// holds a body for is planned, where the receiver of an offset is the
// first rank whose upper split lies above it, as the exchange packs. And
// no splitter falls inside r's unpublished interior -- where the search
// would not know r's work below it -- so the interior's bodies all go
// to one receiver.
func checkPlan(t *testing.T, dc *Decomposer, splits []uint64, ks []keys.Key, r int) []bool {
	pairs := dc.plan(splits)
	owner := func(k keys.Key) int {
		d := 0
		for tree.KeyOffset(k) >= splits[d+1] {
			d++
		}
		return d
	}
	for i, k := range ks {
		if d := owner(k); !pairs(r, d) {
			t.Errorf("rank %d: body %d (offset %x) goes to rank %d, which the plan leaves out (splits %x)", r, i, tree.KeyOffset(k), d, splits)
			break
		}
	}
	if n := len(ks); n > 2*hintWindow {
		if lo, hi := owner(ks[hintWindow-1]), owner(ks[n-hintWindow]); lo != hi {
			t.Errorf("rank %d: the unpublished interior goes to ranks %d to %d, yet the search settled", r, lo, hi)
		}
	}
	return slices.Clone(dc.sends)
}

// BenchmarkAblation_SplitterSweep is the one-allgather search's pass
// over what its allgather gathers at np = 256: every rank's window of
// 2·hintWindow published bodies around an unpublished interior, 32 768
// candidates in all, merged, then summed and covered by one prefix sum
// (sweep). It runs on the Decomposer's scratch, allocating nothing.
func BenchmarkAblation_SplitterSweep(b *testing.B) {
	const p, n = 256, 1000 // ranks, bodies a rank
	wins := make([]window, p)
	for r := range wins {
		w := &wins[r]
		w.n = n
		for i := 0; i < n; i++ {
			if i < hintWindow || i >= n-hintWindow {
				w.edges = append(w.edges, edge{uint64(r*n+i) << 20, w.work})
			}
			w.work += 1 + hash32(int64(r*n+i), 0)%64
		}
	}
	var dc Decomposer
	dc.sweep(wins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.sweep(wins)
	}
	b.ReportMetric(float64(len(dc.cand)), "candidates")
}
