package rsqrt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRsqrtBasics(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 1},
		{4, 0.5},
		{0.25, 2},
		{16, 0.25},
		{2, 1 / math.Sqrt2},
		{1e300, 1 / math.Sqrt(1e300)},
		{1e-300, 1 / math.Sqrt(1e-300)},
		{3.1415926, 1 / math.Sqrt(3.1415926)},
	}
	for _, c := range cases {
		got := Rsqrt(c.x)
		rel := math.Abs(got-c.want) / c.want
		if rel > 4e-16 {
			t.Errorf("Rsqrt(%g) = %.17g, want %.17g (rel %g)", c.x, got, c.want, rel)
		}
	}
}

func TestRsqrtSpecials(t *testing.T) {
	if !math.IsInf(Rsqrt(0), 1) {
		t.Error("Rsqrt(0) should be +Inf")
	}
	if !math.IsInf(Rsqrt(math.Copysign(0, -1)), 1) {
		t.Error("Rsqrt(-0) should be +Inf")
	}
	if !math.IsNaN(Rsqrt(-1)) {
		t.Error("Rsqrt(-1) should be NaN")
	}
	if !math.IsNaN(Rsqrt(math.NaN())) {
		t.Error("Rsqrt(NaN) should be NaN")
	}
	if Rsqrt(math.Inf(1)) != 0 {
		t.Error("Rsqrt(+Inf) should be 0")
	}
}

func TestRsqrtSubnormal(t *testing.T) {
	x := math.Float64frombits(1) // smallest positive subnormal
	got := Rsqrt(x)
	want := 1 / math.Sqrt(x)
	if rel := math.Abs(got-want) / want; rel > 1e-15 {
		t.Errorf("Rsqrt(min subnormal) rel error %g", rel)
	}
	x = math.Float64frombits(0x000FFFFFFFFFFFFF) // largest subnormal
	got = Rsqrt(x)
	want = 1 / math.Sqrt(x)
	if rel := math.Abs(got-want) / want; rel > 1e-15 {
		t.Errorf("Rsqrt(max subnormal) rel error %g", rel)
	}
}

// Property: full-precision Rsqrt matches 1/math.Sqrt to ~2 ulp for all
// positive finite inputs.
func TestRsqrtAccuracyProperty(t *testing.T) {
	f := func(u uint64) bool {
		// Map to a positive finite normal or subnormal float64.
		u &^= 1 << 63
		x := math.Float64frombits(u)
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			return true
		}
		got := Rsqrt(x)
		want := 1 / math.Sqrt(x)
		if math.IsInf(want, 1) {
			return math.IsInf(got, 1)
		}
		rel := math.Abs(got-want) / want
		return rel <= 5e-16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestIterationAccuracyLadder(t *testing.T) {
	// Each Newton step should roughly square the relative error.
	worst0, worst1, worst2 := 53.0, 53.0, 53.0
	for i := 0; i < 4000; i++ {
		x := 1.0 + 3.0*float64(i)/4000.0 // spans the whole table
		if b := CorrectBits(x, Rsqrt0(x)); b < worst0 {
			worst0 = b
		}
		if b := CorrectBits(x, Rsqrt1(x)); b < worst1 {
			worst1 = b
		}
		if b := CorrectBits(x, Rsqrt(x)); b < worst2 {
			worst2 = b
		}
	}
	if worst0 < 20 {
		t.Errorf("seed accuracy %f bits, want >= 20", worst0)
	}
	if worst1 < 42 {
		t.Errorf("1-iteration accuracy %f bits, want >= 42", worst1)
	}
	if worst2 < 50 {
		t.Errorf("2-iteration accuracy %f bits, want >= 50", worst2)
	}
	if worst1 < worst0 || worst2 < worst1 {
		t.Errorf("accuracy not monotone: %f %f %f", worst0, worst1, worst2)
	}
}

func TestSqrt(t *testing.T) {
	for _, x := range []float64{0, 1, 2, 100, 1e-10, 1e10} {
		got := Sqrt(x)
		want := math.Sqrt(x)
		if x == 0 {
			if got != 0 {
				t.Errorf("Sqrt(0) = %g", got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 1e-15 {
			t.Errorf("Sqrt(%g) rel error %g", x, rel)
		}
	}
}

func TestFlopsConstant(t *testing.T) {
	if Flops != 38 {
		t.Fatalf("paper charges 38 flops per interaction, constant is %d", Flops)
	}
}

func BenchmarkRsqrt(b *testing.B) {
	x := 1.234567
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Rsqrt(x)
		x += 1e-9
	}
	_ = sink
}

func BenchmarkMathSqrtInverse(b *testing.B) {
	x := 1.234567
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += 1 / math.Sqrt(x)
		x += 1e-9
	}
	_ = sink
}
