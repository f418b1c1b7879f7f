package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestUniform(t *testing.T) {
	slots := []int{3, 7, 11, 19}
	ls, err := Uniform(slots, 1000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 1000 {
		t.Fatalf("count = %d", len(ls))
	}
	inSet := map[int]bool{3: true, 7: true, 11: true, 19: true}
	for _, l := range ls {
		if l.Src == l.Dst {
			t.Fatal("self lookup generated")
		}
		if !inSet[l.Src] || !inSet[l.Dst] {
			t.Fatalf("lookup outside slot set: %+v", l)
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform([]int{1}, 10, rng.New(1)); err == nil {
		t.Error("single slot accepted")
	}
	if _, err := Uniform([]int{1, 2}, -1, rng.New(1)); err == nil {
		t.Error("negative count accepted")
	}
}

func TestSkewedFractions(t *testing.T) {
	all := make([]int, 100)
	for i := range all {
		all[i] = i
	}
	fast := all[:20]
	slow := all[20:]
	for _, frac := range []float64{0, 0.3, 0.7, 1} {
		ls, err := Skewed(all, fast, slow, frac, 20000, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, l := range ls {
			if l.Dst < 20 {
				hits++
			}
			if l.Src == l.Dst {
				t.Fatal("self lookup")
			}
		}
		got := float64(hits) / float64(len(ls))
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("frac %v: measured %v", frac, got)
		}
	}
}

func TestSkewedErrors(t *testing.T) {
	all := []int{1, 2, 3}
	if _, err := Skewed([]int{1}, all, all, 0.5, 10, rng.New(1)); err == nil {
		t.Error("too-few slots accepted")
	}
	if _, err := Skewed(all, all, all, 1.5, 10, rng.New(1)); err == nil {
		t.Error("bad fraction accepted")
	}
	if _, err := Skewed(all, all, all, math.NaN(), 10, rng.New(1)); err == nil {
		t.Error("NaN fraction accepted")
	}
	if _, err := Skewed(all, nil, all, 0.5, 10, rng.New(1)); err == nil {
		t.Error("empty fast pool with positive fraction accepted")
	}
	if _, err := Skewed(all, all, nil, 0.5, 10, rng.New(1)); err == nil {
		t.Error("empty slow pool with fraction < 1 accepted")
	}
	if _, err := Skewed(all, all, all, 0.5, -2, rng.New(1)); err == nil {
		t.Error("negative count accepted")
	}
	// Boundary fractions tolerate the corresponding empty pool.
	if _, err := Skewed(all, nil, all, 0, 10, rng.New(1)); err != nil {
		t.Errorf("fraction 0 with empty fast pool rejected: %v", err)
	}
	if _, err := Skewed(all, all, nil, 1, 10, rng.New(1)); err != nil {
		t.Errorf("fraction 1 with empty slow pool rejected: %v", err)
	}
}
