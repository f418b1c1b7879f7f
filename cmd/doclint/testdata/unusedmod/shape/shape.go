// Package shape plants one export of each kind the -unused check sorts.
package shape

import "fmt"

type Shape interface{ Area() float64 }

// Square is used by the caller module; no caller names Area or String, but
// they satisfy Shape and fmt.Stringer.
type Square struct{ Side float64 }

func (s Square) Area() float64  { return s.Side * s.Side }
func (s Square) String() string { return fmt.Sprintf("square %g", s.Side) }

// Planted has a test caller only, so it is reported: its call to itself
// does not count.
func Planted(n int) int {
	if n <= 0 {
		return 1
	}
	return Planted(n - 1)
}

// Kept has no caller and is allowlisted.
func Kept() int { return 2 }
