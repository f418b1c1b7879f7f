package stats

import (
	"math"
	"testing"
)

func TestSeries(t *testing.T) {
	var s Series
	s.Label = "test"
	s.Add(1, 10)
	s.Add(2, 20)
	if len(s.X) != 2 || len(s.Y) != 2 {
		t.Fatalf("%d x, %d y values", len(s.X), len(s.Y))
	}
	if s.YAt(2) != 20 {
		t.Fatalf("YAt(2) = %v", s.YAt(2))
	}
	if !math.IsNaN(s.YAt(99)) {
		t.Fatal("missing x should be NaN")
	}
}

func TestMergeMean(t *testing.T) {
	a := Series{X: []float64{1, 2}, Y: []float64{10, 20}}
	b := Series{X: []float64{1, 2}, Y: []float64{30, 40}}
	m := MergeMean("avg", []Series{a, b})
	if m.Label != "avg" || m.Y[0] != 20 || m.Y[1] != 30 {
		t.Fatalf("MergeMean = %+v", m)
	}
	if e := MergeMean("empty", nil); len(e.X) != 0 {
		t.Fatal("empty merge should be empty")
	}
}

func TestMergeMeanPanicsOnMismatch(t *testing.T) {
	a := Series{X: []float64{1, 2}, Y: []float64{1, 2}}
	for _, b := range []Series{
		{X: []float64{1}, Y: []float64{1}},       // shape
		{X: []float64{1, 3}, Y: []float64{1, 2}}, // x values
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mismatch %v accepted", b.X)
				}
			}()
			MergeMean("bad", []Series{a, b})
		}()
	}
}
