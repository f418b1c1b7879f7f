package main

import (
	"reflect"
	"testing"
)

// TestUnusedReportsOnlyThePlantedExport runs the check over a tiny module:
// an export only a test calls is reported; methods that satisfy a module
// interface or fmt.Stringer, an allowlisted export and an export only a
// nested module calls are not.
func TestUnusedReportsOnlyThePlantedExport(t *testing.T) {
	got, err := unused("testdata/unusedmod", "testdata/unusedmod/unused.allow")
	want := []string{"shape/shape.go:17: shape.Planted has no non-test caller"}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("unused = %q, %v; want %q", got, err, want)
	}
}

// TestUnusedReportsStaleAllowlist: an allowlist entry that names no unused
// export is itself a finding.
func TestUnusedReportsStaleAllowlist(t *testing.T) {
	got, err := unused("testdata/unusedmod", "testdata/stale.allow")
	want := []string{
		"shape/shape.go:25: shape.Kept has no non-test caller",
		"shape/shape.go:17: shape.Planted has no non-test caller",
		"testdata/stale.allow: allowlisted shape.Square is not an unused export; remove the entry",
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("unused = %q, %v; want %q", got, err, want)
	}
}
