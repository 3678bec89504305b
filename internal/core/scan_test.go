package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"msync/internal/corpus"
	"msync/internal/pool"
	"msync/internal/rolling"
)

// refHashes is the naive oracle's input: the full hash of every window of
// data, each computed from scratch with fam.Hash (spread over the worker
// pool, since at the large windows this is most of the test's work).
func refHashes(fam rolling.Family, data []byte, size int) []uint64 {
	hs := make([]uint64, len(data)-size+1)
	const chunks = 64
	_ = pool.Do(0, chunks, func(c int) error {
		for pos := pool.Bound(len(hs), chunks, c); pos < pool.Bound(len(hs), chunks, c+1); pos++ {
			hs[pos] = fam.Hash(data[pos : pos+size])
		}
		return nil
	})
	return hs
}

// refScan is the naive reference for scanOld: for each key, the first
// maxAlt alignments in [lo, hi) whose hash, truncated to bits, equals it.
func refScan(hs, keys []uint64, bits uint, lo, hi, maxAlt int) [][]int32 {
	byKey := map[uint64][]int{}
	for i, k := range keys {
		byKey[k] = append(byKey[k], i)
	}
	out := make([][]int32, len(keys))
	for pos := lo; pos < hi; pos++ {
		for _, i := range byKey[rolling.Truncate(hs[pos], bits)] {
			if len(out[i]) < maxAlt {
				out[i] = append(out[i], int32(pos))
			}
		}
	}
	return out
}

// checkCands compares scanOld's candidate lists with the reference's.
func checkCands(t *testing.T, what string, got, want [][]int32) {
	t.Helper()
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: entry %d: got %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestScanMatchesReference checks the one old-file scan kernel against a
// naive oracle that hashes every window from scratch: both hash families,
// windows from 16 to 2048 (including the odd 1949-byte tail size), worker
// counts 1, 2 and 8 — so the same keys run as one shard, two and eight —
// duplicate keys (the set's extras), the MaxAlternates cap at 1 and 4,
// hits on and beside every shard boundary, narrow keys that hit everywhere,
// a window as long as the file, and local scans at the file's edges. Worker
// counts must not change a single candidate: TestParallelWireDeterminism
// relies on it.
func TestScanMatchesReference(t *testing.T) {
	t.Run("global", testScanGlobal)
	t.Run("local-edges", testLocalCandidatesAtFileEdges)
}

func testScanGlobal(t *testing.T) {
	pool.SetParallelism(8)
	defer pool.SetParallelism(0)

	rng := rand.New(rand.NewSource(23))
	// Long enough for two shards at the largest window (2·64·2048
	// alignments) and eight at the small ones.
	data := corpus.SourceText(rng, 2*scanReseedFactor*2048+2048+1000)
	// A periodic run across the middle (the two-shard boundary): a key
	// taken inside it matches every 100 bytes, on both sides of the
	// boundary, so the per-shard cap and the merge's re-cap both bite.
	period := data[10_000:10_100]
	mid := len(data) / 2
	for p := mid - 8000; p < mid+8000; p += len(period) {
		copy(data[p:], period)
	}

	for _, famName := range []string{"poly", "adler"} {
		fam, err := rolling.FamilyByName(famName)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{16, 128, 1949, 2048} {
			positions := len(data) - size + 1
			hs := refHashes(fam, data, size)

			// Windows whose hashes become keys: every shard boundary of
			// every shard count the worker matrix produces, and one
			// alignment either side; the file's first and last
			// alignments; one inside the periodic run; a few at random.
			var at []int
			for _, w := range []int{2, 8} {
				shards := pool.Shards(w, positions, scanShardMin(size))
				for s := 1; s < shards; s++ {
					b := pool.Bound(positions, shards, s)
					at = append(at, b-1, b, b+1)
				}
			}
			at = append(at, 0, positions-1, mid-4000)
			for i := 0; i < 8; i++ {
				at = append(at, rng.Intn(positions))
			}

			for _, bits := range []uint{10, 34} {
				var keys []uint64
				for _, p := range at {
					keys = append(keys, rolling.Truncate(hs[p], bits))
				}
				// Duplicate keys exercise the set's extras, and keys
				// drawn at random are (at 34 bits) almost surely absent.
				keys = append(keys, keys[0], keys[len(keys)-1], keys[len(keys)-1])
				for i := 0; i < 4; i++ {
					keys = append(keys, rolling.Truncate(rng.Uint64(), bits))
				}
				ref := refScan(hs, keys, bits, 0, positions, 4)

				for _, maxAlt := range []int{1, 4} {
					want := make([][]int32, len(ref))
					for i, r := range ref {
						want[i] = r[:min(maxAlt, len(r))]
					}
					for _, workers := range []int{1, 2, 8} {
						cfg := DefaultConfig()
						cfg.HashFamily = famName
						cfg.Workers = workers
						c, err := NewClientFile(data, len(data), &cfg)
						if err != nil {
							t.Fatal(err)
						}
						set := newSearchSet(len(keys))
						for i, k := range keys {
							set.add(k, int32(i))
						}
						cands := make([][]int32, len(keys))
						c.scanOld(size, bits, set, 0, positions, cands, maxAlt)
						checkCands(t, fmt.Sprintf("%s w=%d bits=%d maxAlt=%d workers=%d", famName, size, bits, maxAlt, workers), cands, want)
					}
				}
			}

			// A window as long as the file has exactly one alignment.
			whole := data[:size]
			cfg := DefaultConfig()
			cfg.HashFamily = famName
			c, err := NewClientFile(whole, len(whole), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			set := newSearchSet(2)
			set.add(rolling.Truncate(fam.Hash(whole), 34), 0)
			set.add(rolling.Truncate(fam.Hash(data[1:size+1]), 34), 1)
			cands := make([][]int32, 2)
			c.scanOld(size, 34, set, 0, 1, cands, 4)
			checkCands(t, fmt.Sprintf("%s w=%d whole file", famName, size), cands, [][]int32{{0}, nil})
		}
	}
}

// testLocalCandidatesAtFileEdges checks localCandidates against the naive
// oracle where the LocalRadius neighbourhood runs off either end of the old
// file, lies wholly outside it, or the window is longer than the file.
func testLocalCandidatesAtFileEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := corpus.SourceText(rng, 20_000)
	for _, famName := range []string{"poly", "adler"} {
		cfg := DefaultConfig()
		cfg.HashFamily = famName
		c, err := NewClientFile(data, len(data), &cfg)
		if err != nil {
			t.Fatal(err)
		}
		radius := cfg.LocalRadius
		for _, tc := range []struct {
			name      string
			size, hit int // hit: alignment whose hash is the entry's key
			pred      int // predicted source position
		}{
			{"start", 128, 0, -radius / 2},
			{"start-exact", 64, 0, 0},
			{"end", 128, len(data) - 128, len(data) - 128 + radius/2},
			{"end-exact", 512, len(data) - 512, len(data) - 512},
			{"before-file", 128, 0, -radius - 1},
			{"after-file", 128, len(data) - 128, len(data) - 128 + radius + 1},
			{"longer-than-file", len(data) + 1, 0, 0},
		} {
			const bits = 12 // narrow: spurious hits inside the radius too
			var key uint64
			if tc.size <= len(data) {
				key = rolling.Truncate(c.fam.Hash(data[tc.hit:tc.hit+tc.size]), bits)
			}
			// One match maps server offset 0 to client offset pred.
			c.matches = []match{{serverOff: 0, length: 1, clientOff: tc.pred}}
			c.plan = &plan{entries: []entry{{kind: kLocal, bits: bits, off: 0, size: tc.size, matchIdx: 0}}}
			cands := make([][]int32, 1)
			c.localCandidates(0, key, cands, cfg.MaxAlternates)

			var want []int32
			lo := max(tc.pred-radius, 0)
			hi := min(tc.pred+radius, len(data)-tc.size)
			for pos := lo; pos <= hi && len(want) < cfg.MaxAlternates; pos++ {
				if rolling.Truncate(c.fam.Hash(data[pos:pos+tc.size]), bits) == key {
					want = append(want, int32(pos))
				}
			}
			checkCands(t, famName+" "+tc.name, cands, [][]int32{want})
		}
	}
}

// TestSearchSetResetShrinks: a pooled set reset for fewer keys than an
// earlier round must shrink its table and prefilter to what the new count
// needs (so clearing stays O(n)), and still answer lookups exactly.
func TestSearchSetResetShrinks(t *testing.T) {
	ss := newSearchSet(100_000)
	for i := 0; i < 100_000; i++ {
		ss.add(uint64(i)*7919, int32(i))
	}
	big, bigFilter := len(ss.keys), len(ss.filter)
	ss.reset(1)
	small := newSearchSet(1)
	if len(ss.keys) != len(small.keys) || len(ss.filter) != len(small.filter) {
		t.Fatalf("reset(1) after 100k keys: table %d→%d, filter %d→%d words; fresh set has %d, %d",
			big, len(ss.keys), bigFilter, len(ss.filter), len(small.keys), len(small.filter))
	}
	ss.add(42, 7)
	ss.add(42, 8)
	for k := uint64(0); k < 100_000; k++ {
		if first, extras, ok := ss.lookup(k * 7919); ok {
			t.Fatalf("stale key %d found after reset (first %d extras %v)", k*7919, first, extras)
		}
	}
	first, extras, ok := ss.lookup(42)
	if !ok || first != 7 || !slices.Equal(extras, []int32{8}) || !ss.mayContain(42) {
		t.Fatalf("lookup(42) = %d, %v, %v; want 7, [8], true", first, extras, ok)
	}
}
