package bench

import (
	"encoding/json"
	"testing"
)

// TestPubFanout runs the fan-out experiment at reduced scale and checks the
// properties the full BENCH_pub.json report is meant to demonstrate.
func TestPubFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-reader fan-out measurement")
	}
	out, err := ReportJSON("pub.fanout", Options{Scale: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var rep PubReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 4 {
		t.Fatalf("got %d arms", len(rep.Arms))
	}
	byMode := map[string]PubArm{}
	for _, a := range rep.Arms {
		byMode[a.Mode] = a
		if !a.Converged {
			t.Errorf("%s: not converged", a.Mode)
		}
		if a.Readers != pubReaders {
			t.Errorf("%s: %d readers", a.Mode, a.Readers)
		}
	}

	// The interactive protocol hashes on the server for every reader; the
	// publish arms must cost the origin nothing per additional reader.
	ia := byMode["interactive"]
	if ia.ServerHashedFirst == 0 || ia.ServerHashedExtra == 0 {
		t.Errorf("interactive server hashing not accounted: %+v", ia)
	}
	for _, mode := range []string{"publish", "publish-cdn", "publish-delta"} {
		a := byMode[mode]
		if a.ServerHashedExtra != 0 {
			t.Errorf("%s: additional readers cost the server %d hashed bytes, want 0", mode, a.ServerHashedExtra)
		}
		if a.PublishHashed == 0 {
			t.Errorf("%s: publish step hashed nothing", mode)
		}
	}

	// The warm CDN arm must answer later readers almost entirely from cache:
	// per extra reader, only the mutable endpoints (/latest, and /since or
	// the manifest revalidation) may reach the origin.
	cdn := byMode["publish-cdn"]
	if cdn.OriginRequestsFirst == 0 {
		t.Error("cdn: first reader reached the origin zero times")
	}
	perExtra := float64(cdn.OriginRequestsExtra) / float64(pubReaders-1)
	if perExtra > 4 {
		t.Errorf("cdn: %.1f origin requests per extra reader, want mutable endpoints only", perExtra)
	}

	// The delta path must move less metadata than the full-manifest path.
	if d, p := byMode["publish-delta"], byMode["publish"]; d.DownBytesTotal >= p.DownBytesTotal {
		t.Errorf("delta arm downloaded %d >= full arm %d", d.DownBytesTotal, p.DownBytesTotal)
	}
}
