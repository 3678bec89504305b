package core

import (
	"fmt"
	"math/rand"
	"testing"

	"msync/internal/corpus"
	"msync/internal/rolling"
)

func BenchmarkSyncLocal1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	old := corpus.SourceText(rng, 1<<20)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}
	cur := em.Apply(rng, old)
	cfg := DefaultConfig()
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SyncLocal(old, cur, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanOld measures the old-file scan layer alone — the rolling
// window plus the searchSet probe at every alignment — on one worker: a
// 2 MB source text against a round-sized set of ~1000 34-bit keys taken from
// evenly spaced windows of an edited version, at the protocol's extreme
// block sizes.
func BenchmarkScanOld(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	old := corpus.SourceText(rng, 2<<20)
	cur := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}.Apply(rng, old)
	const keys, hb = 1000, 34
	for _, w := range []int{128, 2048} {
		b.Run(fmt.Sprintf("b%d", w), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			c, err := NewClientFile(old, len(cur), &cfg)
			if err != nil {
				b.Fatal(err)
			}
			set := newSearchSet(keys)
			step := (len(cur) - w) / keys
			for i := 0; i < keys; i++ {
				set.add(rolling.Truncate(c.fam.Hash(cur[i*step:i*step+w]), hb), int32(i))
			}
			cands := make([][]int32, keys)
			b.SetBytes(int64(len(old)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range cands {
					cands[j] = cands[j][:0]
				}
				c.scanOld(w, hb, set, 0, len(old)-w+1, cands, cfg.MaxAlternates)
			}
		})
	}
}
