package main

import "testing"

// TestValidFormat pins the -format values main accepts before it runs
// anything; a near-miss like "cvs" must be rejected up front.
func TestValidFormat(t *testing.T) {
	for _, f := range []string{"table", "csv", "json"} {
		if !validFormat(f) {
			t.Errorf("validFormat(%q) = false, want true", f)
		}
	}
	for _, f := range []string{"", "cvs", "CSV", "jsonl", "table "} {
		if validFormat(f) {
			t.Errorf("validFormat(%q) = true, want false", f)
		}
	}
}
