package shape

import "testing"

func TestPlanted(t *testing.T) {
	if Planted(2) != 1 {
		t.Fatal("Planted")
	}
}
