package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"msync/internal/corpus"
)

// Corpus shapes. Every input is derived from the run's seed alone.
const (
	bigFiles     = 4
	bigFileBytes = 2 << 20

	treeFiles    = 10_000
	treeDirs     = 100
	treeMinBytes = 1536 // sizes are uniform in [treeMinBytes, treeMinBytes+1024)
)

// bigEdits is the edit model of the repository's SyncFile micro-benchmark:
// scattered bursts of line-level edits.
var bigEdits = corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 4, EditSize: 50, BurstSpread: 300}

// treeEdits is the edit model applied to the ~1% of tree files edited per
// version (the versioned-store experiment's churn).
var treeEdits = corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 40, BurstSpread: 200}

// pair is one file present in two versions with different content.
type pair struct {
	path     string
	old, cur []byte
}

// bigfilePair returns the outdated and current collections of the bigfile
// workload: bigFiles source-text files of bigFileBytes, each with scattered
// edit bursts.
func bigfilePair(seed int64) (old, cur map[string][]byte) {
	rng := rand.New(rand.NewSource(seed))
	old = make(map[string][]byte, bigFiles)
	cur = make(map[string][]byte, bigFiles)
	for i := 0; i < bigFiles; i++ {
		p := fmt.Sprintf("src/big%d.c", i)
		old[p] = corpus.SourceText(rng, bigFileBytes)
		cur[p] = bigEdits.Apply(rng, old[p])
	}
	return old, cur
}

// treeHistory returns versions 1..n of a tree of files small source-text
// files in treeDirs directories; each version churns its predecessor.
// Unchanged files share their content slices across versions.
func treeHistory(seed int64, files, n int) []map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	v1 := make(map[string][]byte, files)
	for i := 0; i < files; i++ {
		v1[fmt.Sprintf("dir%03d/f%05d.c", i%treeDirs, i)] = corpus.SourceText(rng, treeMinBytes+rng.Intn(1024))
	}
	out := []map[string][]byte{v1}
	for v := 2; v <= n; v++ {
		out = append(out, churn(rng, out[len(out)-1], v))
	}
	return out
}

// churn derives version gen from prev: ~1% of files edited, 0.2% added and
// 0.1% deleted, chosen deterministically from rng.
func churn(rng *rand.Rand, prev map[string][]byte, gen int) map[string][]byte {
	next := make(map[string][]byte, len(prev))
	for k, v := range prev {
		next[k] = v
	}
	keys := sortedKeys(prev)
	pick := func(n int) []string {
		out := make([]string, 0, n)
		for i := 0; i < n && len(keys) > 0; i++ {
			j := rng.Intn(len(keys))
			out = append(out, keys[j])
			keys = append(keys[:j], keys[j+1:]...)
		}
		return out
	}
	for _, k := range pick(max(1, len(prev)/100)) {
		next[k] = treeEdits.Apply(rng, prev[k])
	}
	for _, k := range pick(max(1, len(prev)/1000)) {
		delete(next, k)
	}
	for i := 0; i < max(1, len(prev)/500); i++ {
		p := fmt.Sprintf("dir%03d/v%d_new%04d.c", i%treeDirs, gen, i)
		next[p] = corpus.SourceText(rng, treeMinBytes+rng.Intn(1024))
	}
	return next
}

// changedPairs lists the files present in both collections whose content
// differs, sorted by path: the inputs a session hands to the sync engine.
func changedPairs(old, cur map[string][]byte) []pair {
	var out []pair
	for _, p := range sortedKeys(cur) {
		if o, ok := old[p]; ok && !bytes.Equal(o, cur[p]) {
			out = append(out, pair{path: p, old: o, cur: cur[p]})
		}
	}
	return out
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectionDigest fingerprints a collection: SHA-256 over its sorted paths,
// lengths and contents.
func collectionDigest(m map[string][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range sortedKeys(m) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
		binary.LittleEndian.PutUint64(n[:], uint64(len(m[p])))
		h.Write(n[:])
		h.Write(m[p])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeTree materializes a collection under dir (no fsync: the tree is read
// back through the page cache).
func writeTree(dir string, m map[string][]byte) error {
	made := make(map[string]bool)
	for p, data := range m {
		full := filepath.Join(dir, filepath.FromSlash(p))
		if d := filepath.Dir(full); !made[d] {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return err
			}
			made[d] = true
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
