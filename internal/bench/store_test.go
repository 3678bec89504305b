package bench

import (
	"encoding/json"
	"testing"
)

// TestStoreReport runs the versioned-store experiment at tiny scale through
// the JSON report writer: every point must converge, and each journal point
// must be a single journal hit that moves fewer bytes than the full session
// from the same base version.
func TestStoreReport(t *testing.T) {
	out, err := ReportJSON("store.journal", Options{Scale: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var rep StoreReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	journals := 0
	for _, p := range rep.Points {
		if !p.Converged {
			t.Errorf("%s from v%d: not converged", p.Mode, p.BaseVersion)
		}
		if p.Mode != "journal" {
			continue
		}
		journals++
		if p.JournalHits != 1 || p.JournalMisses != 0 {
			t.Errorf("journal from v%d: hits/misses %d/%d, want 1/0", p.BaseVersion, p.JournalHits, p.JournalMisses)
		}
		if p.WireVsFull <= 0 || p.WireVsFull >= 1 {
			t.Errorf("journal from v%d: wire fraction of full %.3f, want in (0, 1)", p.BaseVersion, p.WireVsFull)
		}
	}
	if journals != 2 {
		t.Fatalf("report has %d journal points, want 2: %+v", journals, rep.Points)
	}
}
