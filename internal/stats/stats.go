// Package stats provides the summary statistics the experiment harness
// uses to aggregate multi-seed trials into the paper's reported series.
//
// Key type: Series (label + points). See DESIGN.md §1.
package stats

import (
	"fmt"
	"math"
)

// Series is a labelled sequence of (x, y) points — one curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// YAt returns the y value at the given x (exact match), or NaN.
func (s Series) YAt(x float64) float64 {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// MergeMean averages multiple same-shaped series point-wise (e.g. the same
// curve measured across trial seeds). All series must have identical X
// vectors; it panics otherwise.
func MergeMean(label string, series []Series) Series {
	if len(series) == 0 {
		return Series{Label: label}
	}
	out := Series{Label: label, X: append([]float64(nil), series[0].X...)}
	out.Y = make([]float64, len(out.X))
	for _, s := range series {
		if len(s.X) != len(out.X) {
			panic(fmt.Sprintf("stats: MergeMean shape mismatch: %d vs %d points", len(s.X), len(out.X)))
		}
		for i := range s.X {
			if s.X[i] != out.X[i] {
				panic(fmt.Sprintf("stats: MergeMean x mismatch at %d: %v vs %v", i, s.X[i], out.X[i]))
			}
			out.Y[i] += s.Y[i]
		}
	}
	for i := range out.Y {
		out.Y[i] /= float64(len(series))
	}
	return out
}
