package sim

import (
	"math"
	"math/bits"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seeded RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently-seeded RNGs produced %d identical draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced the all-zero fixed point")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(13)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn(10) never produced %d in 10000 draws", v)
		}
	}
}

// TestRNGIntnMatchesReference pins the Lemire multiply-shift
// implementation against a straightforward rejection-sampling reference
// driven by the same underlying bit stream: both are exactly uniform, so
// for any n they must make the same accept/reject decisions and return
// the same values.
func TestRNGIntnMatchesReference(t *testing.T) {
	// Reference: Lemire's method written out naively.
	ref := func(r *RNG, n int) int {
		un := uint64(n)
		for {
			v := r.Uint64()
			hi, lo := bits.Mul64(v, un)
			if lo >= (-un)%un {
				return int(hi)
			}
		}
	}
	// The largest n sits a quarter of the way to the int range's end:
	// (1<<62)+12345 on 64-bit platforms, (1<<30)+12345 on 32-bit ones.
	for _, n := range []int{1, 2, 3, 7, 10, 1000, 1 << 20, 1<<(bits.UintSize-2) + 12345} {
		a, b := NewRNG(77), NewRNG(77)
		for i := 0; i < 2000; i++ {
			got, want := a.Intn(n), ref(b, n)
			if got != want {
				t.Fatalf("Intn(%d) draw %d = %d, reference %d", n, i, got, want)
			}
			if got < 0 || got >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, got)
			}
		}
	}
}

// TestRNGIntnUnbiased checks that no residue class is over-weighted for
// a small n: with the old Uint64()%n the test's tolerance would still
// pass (the bias at small n is tiny), so it is paired with the golden
// sequence below, which pins the unbiased algorithm itself.
func TestRNGIntnUnbiased(t *testing.T) {
	r := NewRNG(31)
	const n, draws = 6, 300000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.02*want {
			t.Fatalf("Intn(%d): value %d drawn %d times, want ~%.0f", n, v, c, want)
		}
	}
}

// TestRNGIntnGolden pins the exact sequence for a fixed seed so that any
// change to the Intn algorithm is a deliberate, visible decision.
func TestRNGIntnGolden(t *testing.T) {
	r := NewRNG(42)
	var got [8]int
	for i := range got {
		got[i] = r.Intn(1000)
	}
	want := [8]int{339, 782, 790, 944, 764, 835, 204, 439}
	if got != want {
		t.Fatalf("Intn(1000) sequence from seed 42 = %v, want %v", got, want)
	}
}

func TestRNGIntnOne(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if v := r.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(17)
	mean := 100 * Microsecond
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		d := r.Exp(mean)
		if d < 0 {
			t.Fatalf("Exp returned negative duration %v", d)
		}
		sum += float64(d)
	}
	got := sum / n
	if math.Abs(got-float64(mean)) > 0.03*float64(mean) {
		t.Fatalf("Exp mean = %v, want ~%v", Duration(got), mean)
	}
}

func TestRNGExpNonPositiveMean(t *testing.T) {
	r := NewRNG(1)
	if r.Exp(0) != 0 || r.Exp(-5) != 0 {
		t.Fatal("Exp with non-positive mean should return 0")
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(23)
	base := 100 * Microsecond
	for i := 0; i < 10000; i++ {
		d := r.Jitter(base, 0.25)
		if d < 75*Microsecond || d > 125*Microsecond {
			t.Fatalf("Jitter(100µs, 0.25) = %v outside [75µs,125µs]", d)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("Jitter with zero fraction altered duration")
	}
}
