package hotengine_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/vec"
)

// mirror structs re-declare each physics' fixed wire record with
// encoding/binary-sizeable fields, so the reflection-derived sizes
// are checked against an independent accounting. The historical
// hand-computed constants (118 for gravity, 142 for vortex) are
// pinned too: the msg traffic counters, and the perfmodel times
// derived from them, must not drift when a payload changes silently.

type gravMirror struct {
	Key       uint64
	Mp        [12]float64 // M, COM, Q (6 of Sym3), B2, Bmax
	RCrit     float64
	N         int32
	ChildMask uint8
	Leaf      bool
}

type vortexMirror struct {
	Key       uint64
	Mp        [12]float64
	ASum      [3]float64
	RCrit     float64
	N         int32
	ChildMask uint8
	Leaf      bool
}

func TestCellWireBytesMatchDeclaredRecords(t *testing.T) {
	cases := []struct {
		name   string
		got    int
		mirror any
		legacy int
	}{
		{"gravity and SPH", hotengine.CellWireBytes[hotengine.None](), gravMirror{}, 118},
		{"vortex", hotengine.CellWireBytes[vec.V3](), vortexMirror{}, 142},
	}
	for _, c := range cases {
		want := binary.Size(c.mirror)
		if c.got != want {
			t.Errorf("%s: CellWireBytes = %d, binary.Size of mirror record = %d", c.name, c.got, want)
		}
		if c.got != c.legacy {
			t.Errorf("%s: CellWireBytes = %d, historical wire constant = %d (traffic accounting would shift)", c.name, c.got, c.legacy)
		}
	}
}

func TestKeyWireBytes(t *testing.T) {
	if got := hotengine.KeyWireBytes(); got != 8 {
		t.Fatalf("KeyWireBytes = %d, want 8", got)
	}
}

func TestCellWireBytesRejectsUnsizeablePayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CellWireBytes accepted a slice-valued cell payload; wire sizes would be wrong")
		}
	}()
	// A slice has no fixed packed size; putting one in the per-cell
	// payload (rather than among a leaf's bodies) must be rejected.
	hotengine.CellWireBytes[[]float64]()
}

// A pushed record is counted at its wire size: the cell, and a leaf's
// bodies on top. Behind an exchange that carried the walk's bound the
// walk phase's traffic is the push alone, so at np 4 its bytes, summed
// over the ranks, are those of every record imported: the pushed cells
// at CellWireBytes and the imported bodies at the BodyBytes of the
// physics' leaf view.
func TestPushBytesCountLeafBodies(t *testing.T) {
	const np, n = 4, 1500
	global := ic.Plummer(n, 1.0, 29)
	var mu sync.Mutex
	var pushed, bodies uint64
	w := msg.NewWorld(np)
	w.Run(func(c *msg.Comm) {
		p := &colPhysics{}
		e := hotengine.New[vec.V3](c, scatterTo(global, c), p, hotengine.Config{
			MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
			Bucket: 8,
		})
		p.e = e
		v := &gravWalk{p: p, lists: map[keys.Key][]uint64{}}
		e.ExchangeFor(v, nil)
		e.WalkGroups("walk", v, v.eval)
		mu.Lock()
		defer mu.Unlock()
		pushed += e.Counters.Pushed
		bodies += uint64(e.ImportedBodies())
	})
	var got uint64
	for r := 0; r < np; r++ {
		if ph := w.RankTraffic(r).Phases["walk"]; ph != nil {
			got += ph.Bytes
		}
	}
	view := (&colPhysics{}).Columns(global)
	cell, body := uint64(hotengine.CellWireBytes[vec.V3]()), uint64(view.BodyBytes())
	if want := pushed*cell + bodies*body; bodies == 0 || got != want {
		t.Fatalf("walk phase sent %d bytes; %d pushed cells x %d + %d bodies x %d = %d", got, pushed, cell, bodies, body, want)
	}
}
