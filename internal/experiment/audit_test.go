package experiment

import (
	"strings"
	"testing"
)

// TestAuditedRunsClean runs one Gnutella panel and one Chord panel at
// miniature scale with the online auditor attached and verifies (a) the run
// is violation-free — the final audit check turns any violation into an error — and
// (b) the per-trial audit summaries land in Result.Notes. This test is NOT
// skipped in -short mode so that `go test -tags auditstrict -short ./...`
// evaluates every registered invariant on every protocol event.
func TestAuditedRunsClean(t *testing.T) {
	for _, id := range []string{"fig5c", "fig6c"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(id, Options{Seed: 3, Trials: 2, Scale: 0.05, Audit: true})
			if err != nil {
				t.Fatalf("audited %s: %v", id, err)
			}
			auditNotes := 0
			for _, n := range res.Notes {
				if strings.HasPrefix(n, "audit trial ") {
					auditNotes++
					if !strings.Contains(n, "0 violations") {
						t.Fatalf("audit note reports violations: %q", n)
					}
				}
			}
			// Both panels have 2 variants and we ask for 2 trials: one
			// summary per audited run.
			if auditNotes != 4 {
				t.Fatalf("got %d audit notes, want one per trial and variant (4): %q", auditNotes, res.Notes)
			}
		})
	}
}

// TestAuditOffLeavesNotesClean verifies the auditor is pay-for-play: without
// Options.Audit no audit notes appear.
func TestAuditOffLeavesNotesClean(t *testing.T) {
	for _, n := range golden(t, "fig5c").res.Notes {
		if strings.HasPrefix(n, "audit trial ") {
			t.Fatalf("unexpected audit note without Options.Audit: %q", n)
		}
	}
}
