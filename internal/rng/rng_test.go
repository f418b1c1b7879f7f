package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: generators with equal seeds diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs out of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("seed 0 generator looks degenerate: only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	equal := 0
	for i := 0; i < 200; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("sibling splits produced %d identical outputs", equal)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expectation %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean %.4f far from 1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	sum, sumSq := 0.0, 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("NormFloat64 mean %.4f far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("NormFloat64 variance %.4f far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%50) + 1
		r := New(seed)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i
		}
		r.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		seen := make([]bool, n)
		for _, v := range vals {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(23)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / draws; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit fraction %.4f", frac)
	}
	if r.Bool(0) {
		// p=0 can essentially never be true; one draw suffices as a smoke check.
		t.Fatal("Bool(0) returned true")
	}
}

func TestPickWeighted(t *testing.T) {
	r := New(29)
	counts := make([]int, 3)
	weights := []float64{1, 2, 7}
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Pick(weights)]++
	}
	for i, w := range weights {
		want := w / 10 * draws
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("weight bucket %d: count %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestPickPanics(t *testing.T) {
	cases := [][]float64{{0, 0}, {-1, 2}, {math.NaN()}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pick(%v) did not panic", ws)
				}
			}()
			New(1).Pick(ws)
		}()
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", -3: "-3", 1234: "1234", -987654: "-987654"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}
