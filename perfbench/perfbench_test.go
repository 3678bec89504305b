package main

import (
	"math"
	"testing"
	"time"

	"msync/internal/stats"
)

func TestCorpusIsDeterministicInSeed(t *testing.T) {
	_, a := bigfilePair(1)
	_, b := bigfilePair(1)
	_, c := bigfilePair(2)
	if collectionDigest(a) != collectionDigest(b) {
		t.Fatal("bigfile: same seed gave different collections")
	}
	if collectionDigest(a) == collectionDigest(c) {
		t.Fatal("bigfile: different seeds gave the same collection")
	}

	h1, h2, h3 := treeHistory(5, 300, 3), treeHistory(5, 300, 3), treeHistory(6, 300, 3)
	for v := range h1 {
		if collectionDigest(h1[v]) != collectionDigest(h2[v]) {
			t.Fatalf("tree v%d: same seed gave different collections", v+1)
		}
		if collectionDigest(h1[v]) == collectionDigest(h3[v]) {
			t.Fatalf("tree v%d: different seeds gave the same collection", v+1)
		}
	}
	// Churn edits 1% of 300 files; an edit burst clamped at a file's end can
	// leave that file unchanged, so fewer may differ.
	if n := len(changedPairs(h1[1], h1[2])); n < 1 || n > 3 {
		t.Fatalf("churn of 300 files changed %d, want 1..3", n)
	}
}

func TestLinkModelMatchesStats(t *testing.T) {
	for _, l := range []link{dslLink, link10M} {
		for _, c := range []struct {
			s2c, c2s int64
			rt       int
		}{{0, 0, 0}, {81038, 7066, 18}, {51951, 346579, 13}, {1, 1 << 30, 1}} {
			var costs stats.Costs
			costs.Add(stats.S2C, stats.PhaseDelta, int(c.s2c))
			costs.Add(stats.C2S, stats.PhaseMap, int(c.c2s))
			costs.Roundtrips = c.rt
			want := stats.LinkModel{DownBps: l.DownBps, UpBps: l.UpBps, RTT: l.RTT}.Duration(&costs).Seconds() + 0.25
			// Duration truncates to whole nanoseconds.
			if got := l.seconds(c.s2c, c.c2s, c.rt, 0.25); math.Abs(got-want) > 2e-9 {
				t.Errorf("%s %+v: got %.9f s, stats.LinkModel gives %.9f s", l.Name, c, got, want)
			}
		}
	}
	if got := dslLink.seconds(125_000, 32_000, 10, 0); got != 2+10*0.08 {
		t.Errorf("dsl: 1 s down + 1 s up + 10 RTT = %v, want 2.8", got)
	}
	if link10M.RTT != 50*time.Millisecond || link10M.DownBps != 10e6/8 {
		t.Errorf("10m link constants drifted: %+v", link10M)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to exercise the sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		good bool
	}{
		{20, 50, true},   // rank 10, exactly 10 beyond
		{25, 60, true},   // p61 would leave 9
		{100, 90, true},  // p91 would leave 9
		{1000, 99, true}, // p99.9 would leave 1
		{10000, 99.9, true},
		{19, 50, false}, // too few samples for any percentile
		{1, 50, false},
	} {
		tl := tailPercentile(samples(c.n))
		if tl.Percentile != c.p || tl.Samples != c.n {
			t.Errorf("n=%d: got p%v over %d samples, want p%v over %d", c.n, tl.Percentile, tl.Samples, c.p, c.n)
		}
		if (tl.Beyond >= tailBeyond) != c.good {
			t.Errorf("n=%d: %d samples beyond, want >= %d: %v", c.n, tl.Beyond, tailBeyond, c.good)
		}
		// Values are 1..n, so the value at a rank is the rank itself.
		if rank := c.n - tl.Beyond; tl.Value != float64(rank) {
			t.Errorf("n=%d: value %v, want the rank-%d sample", c.n, tl.Value, rank)
		}
	}
	if tl := tailPercentile(nil); tl.Samples != 0 {
		t.Errorf("no samples: got %+v", tl)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: %v", m)
	}
}
