package snapio

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/vec"
)

func randomSystem(n int, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	sys := core.New(n)
	sys.EnableDynamics()
	for i := 0; i < n; i++ {
		sys.Pos[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		sys.Vel[i] = vec.V3{X: rng.NormFloat64()}
		sys.Mass[i] = rng.Float64() + 0.1
	}
	return sys
}

func TestRoundTripStriped(t *testing.T) {
	dir := t.TempDir()
	for _, stripes := range []int{1, 3, 16} {
		sys := randomSystem(100, int64(stripes))
		if err := WriteStriped(dir, "snap", sys, 2.5, stripes); err != nil {
			t.Fatal(err)
		}
		got, tm, err := ReadStriped(dir, "snap", stripes)
		if err != nil {
			t.Fatal(err)
		}
		if tm != 2.5 {
			t.Fatalf("time = %v", tm)
		}
		if got.Len() != sys.Len() {
			t.Fatalf("stripes=%d: N = %d", stripes, got.Len())
		}
		for i := 0; i < sys.Len(); i++ {
			if got.Pos[i] != sys.Pos[i] || got.Vel[i] != sys.Vel[i] ||
				got.Mass[i] != sys.Mass[i] || got.ID[i] != sys.ID[i] {
				t.Fatalf("stripes=%d body %d corrupted", stripes, i)
			}
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	sys := randomSystem(50, 1)
	if err := WriteStriped(dir, "c", sys, 0, 2); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in stripe 0.
	path := filepath.Join(dir, "c.000-of-002.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerBytes+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadStriped(dir, "c", 2); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	dir := t.TempDir()
	sys := randomSystem(10, 2)
	if err := WriteStriped(dir, "m", sys, 0, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "m.000-of-001.snap")
	data, _ := os.ReadFile(path)
	data[0] ^= 0xFF // break magic
	os.WriteFile(path, data, 0o644)
	if _, _, err := ReadStriped(dir, "m", 1); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestStripeCountMismatch(t *testing.T) {
	dir := t.TempDir()
	sys := randomSystem(10, 3)
	if err := WriteStriped(dir, "s", sys, 0, 2); err != nil {
		t.Fatal(err)
	}
	// Reading with the wrong stripe count fails cleanly (file names
	// don't match).
	if _, _, err := ReadStriped(dir, "s", 3); err == nil {
		t.Fatal("wrong stripe count accepted")
	}
}

// The paper's 64-bit lesson: records must be addressable beyond the
// 2^31-byte boundary. Writes a sparse file with one record past 3 GB
// and reads it back.
func TestLargeOffset64Bit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys := randomSystem(1, 4)
	// Record index chosen so the byte offset exceeds 2^31 (a 32-bit
	// signed offset would wrap): 50 million * 64 bytes = 3.2e9.
	const record = int64(50_000_000)
	if err := WriteAt64(f, sys, 0, record); err != nil {
		t.Fatal(err)
	}
	if off := int64(headerBytes) + record*recordBytes; off <= 1<<31 {
		t.Fatalf("test offset %d does not exceed 2^31", off)
	}
	got := core.New(1)
	got.EnableDynamics()
	if err := ReadAt64(f, got, 0, record); err != nil {
		t.Fatal(err)
	}
	if got.Pos[0] != sys.Pos[0] || got.Mass[0] != sys.Mass[0] {
		t.Fatal("record at >2^31 offset corrupted")
	}
	// The sparse file reports the full logical size.
	st, _ := f.Stat()
	if st.Size() <= 1<<31 {
		t.Fatalf("file size %d", st.Size())
	}
}

func TestWriteStripedValidation(t *testing.T) {
	if err := WriteStriped(t.TempDir(), "x", randomSystem(5, 5), 0, 0); err == nil {
		t.Fatal("stripes=0 accepted")
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, _, err := ReadStriped(t.TempDir(), "nope", 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzReadStriped holds ReadStriped to its contract on hostile files:
// an error or a valid system, never a panic. The two inputs are the
// stripe files of a two-stripe set; the first is also read alone as a
// one-stripe set. The committed corpus has the two headers that used
// to panic: an offset equal to the body count (an index past the
// system) and a negative body count (a negative allocation).
func FuzzReadStriped(f *testing.F) {
	dir := f.TempDir()
	if err := WriteStriped(dir, "seed", randomSystem(5, 6), 1.5, 2); err != nil {
		f.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "seed.000-of-002.snap"))
	b, _ := os.ReadFile(filepath.Join(dir, "seed.001-of-002.snap"))
	f.Add(a, b)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{
			"one.000-of-001.snap": a, "two.000-of-002.snap": a, "two.001-of-002.snap": b,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for base, stripes := range map[string]int{"one": 1, "two": 2} {
			sys, _, err := ReadStriped(dir, base, stripes)
			if err != nil {
				continue
			}
			if err := sys.Validate(); err != nil || len(sys.Vel) != sys.Len() {
				t.Fatalf("%s: read an invalid system (%v)", base, err)
			}
		}
	})
}
