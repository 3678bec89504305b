package bench

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/store"
)

// Reference shape of the versioned-store experiment at Scale 1.0: a wide
// collection of small files where per-file protocol overhead dominates, the
// workload the journal fast path is built for.
const (
	storeFileCount = 10_000
	storeFileBytes = 2 << 10
	storeVersions  = 6
)

// storeChurn derives the next version of tree: ~1% of files lightly edited,
// a few added, a few deleted. Selection is deterministic in rng.
func storeChurn(rng *rand.Rand, tree map[string][]byte, gen int) map[string][]byte {
	next := make(map[string][]byte, len(tree))
	for k, v := range tree {
		next[k] = v
	}
	keys := make([]string, 0, len(tree))
	for k := range tree {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pick := func(n int) []string {
		out := make([]string, 0, n)
		for i := 0; i < n && len(keys) > 0; i++ {
			j := rng.Intn(len(keys))
			out = append(out, keys[j])
			keys = append(keys[:j], keys[j+1:]...)
		}
		return out
	}
	em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 40, BurstSpread: 200}
	edits := len(tree) / 100
	if edits < 1 {
		edits = 1
	}
	for _, k := range pick(edits) {
		next[k] = em.Apply(rng, next[k])
	}
	dels := len(tree) / 1000
	if dels < 1 {
		dels = 1
	}
	for _, k := range pick(dels) {
		delete(next, k)
	}
	adds := len(tree) / 500
	if adds < 1 {
		adds = 1
	}
	for i := 0; i < adds; i++ {
		p := fmt.Sprintf("gen%02d/new%04d.txt", gen, i)
		next[p] = corpus.SourceText(rng, storeFileBytes)
	}
	return next
}

// runStoreSync runs one session: a freshly built server over serverTree
// (wrapped with the version store when st is non-nil) against a client
// holding clientTree, optionally announcing base. Its seconds include server
// construction, and the result must equal serverTree.
func runStoreSync(serverTree map[string][]byte, st *store.Store, clientTree map[string][]byte, announce bool, base uint64, cfg core.Config) (*sessionRun, error) {
	start := time.Now()
	var src collection.Source = collection.MapSource(serverTree)
	if st != nil {
		src = collection.NewStoreSource(src, st)
	}
	srv, err := collection.NewServerSource(src, cfg)
	if err != nil {
		return nil, err
	}
	cli := collection.NewClientSource(collection.MapSource(clientTree))
	cli.AnnounceVersion = announce
	cli.BaseVersion = base
	r, err := runSession(srv, cli)
	if err != nil {
		return nil, fmt.Errorf("bench: store: %w", err)
	}
	r.secs = time.Since(start).Seconds()
	if err := collection.VerifyAgainst(r.result.Files, serverTree); err != nil {
		return nil, fmt.Errorf("bench: store run did not converge: %w", err)
	}
	return r, nil
}

// StorePoint is one mode's measurement in the versioned-store report.
type StorePoint struct {
	// Mode is cold-full (empty client, no announcement), full (client at
	// BaseVersion content, full protocol) or journal (same client state,
	// announcing BaseVersion for the precomputed delta).
	Mode        string  `json:"mode"`
	BaseVersion uint64  `json:"base_version,omitempty"`
	Secs        float64 `json:"seconds"`
	WireBytes   int64   `json:"wire_bytes"`
	MapBytes    int64   `json:"map_bytes"`
	DeltaBytes  int64   `json:"delta_bytes"`
	FullBytes   int64   `json:"full_bytes"`
	Roundtrips  int     `json:"roundtrips"`

	FilesJournal   int   `json:"files_journal"`
	FilesSynced    int   `json:"files_synced"`
	FilesFull      int   `json:"files_full"`
	FilesUnchanged int   `json:"files_unchanged"`
	JournalHits    int64 `json:"journal_hits"`
	JournalMisses  int64 `json:"journal_misses"`

	// Converged reports that the client's result matched the server's
	// collection exactly — the journal path must change nothing but cost.
	Converged bool `json:"converged"`
	// SpeedupVsFull and WireVsFull compare a journal run against the full
	// run from the same base version (journal only).
	SpeedupVsFull float64 `json:"speedup_vs_full,omitempty"`
	WireVsFull    float64 `json:"wire_fraction_of_full,omitempty"`
}

// StoreReport is the JSON artifact (BENCH_store.json) of the versioned-store
// experiment: cold full sync versus journal-delta sync from one and five
// versions back on a wide small-file corpus.
type StoreReport struct {
	Experiment string       `json:"experiment"`
	Files      int          `json:"files"`
	FileBytes  int          `json:"file_bytes"`
	TotalBytes int64        `json:"total_bytes"`
	Versions   int          `json:"versions"`
	Points     []StorePoint `json:"points"`
	Note       string       `json:"note"`
}

// measureStore builds a version history v1..v6 with ~1% churn per step, then
// measures: a cold full sync from nothing, and — for clients holding v5
// (one back) and v1 (five back) — the full protocol versus the journal path.
func measureStore(opts Options) (*StoreReport, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	files := int(float64(storeFileCount) * opts.Scale)
	if files < 100 {
		files = 100
	}

	trees := make([]map[string][]byte, storeVersions+1) // 1-indexed by version
	base := make(map[string][]byte, files)
	var total int64
	for i := 0; i < files; i++ {
		data := corpus.SourceText(rng, storeFileBytes)
		base[fmt.Sprintf("dir%03d/f%05d.txt", i%100, i)] = data
		total += int64(len(data))
	}
	trees[1] = base
	for v := 2; v <= storeVersions; v++ {
		trees[v] = storeChurn(rng, trees[v-1], v)
	}

	storeDir, err := os.MkdirTemp("", "msync-bench-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for v := 1; v <= storeVersions; v++ {
		src := collection.NewStoreSource(collection.MapSource(trees[v]), st)
		got, err := src.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("bench: snapshot v%d: %w", v, err)
		}
		if got != uint64(v) {
			return nil, fmt.Errorf("bench: snapshot cut v%d, want v%d", got, v)
		}
	}

	cfg := bestConfig()
	current := trees[storeVersions]

	const reps = 3 // rep 0 is a warm-up
	best := func(clientTree map[string][]byte, announce bool, base uint64) (*sessionRun, error) {
		return bestOf(reps, func(int) (*sessionRun, error) {
			return runStoreSync(current, st, clientTree, announce, base, cfg)
		})
	}

	point := func(mode string, baseV uint64, r *sessionRun) StorePoint {
		return StorePoint{
			Mode:           mode,
			BaseVersion:    baseV,
			Secs:           r.secs,
			WireBytes:      r.wire(),
			MapBytes:       r.client.PhaseTotal(stats.PhaseMap),
			DeltaBytes:     r.client.PhaseTotal(stats.PhaseDelta),
			FullBytes:      r.client.PhaseTotal(stats.PhaseFull),
			Roundtrips:     r.client.Roundtrips,
			FilesJournal:   r.client.FilesJournal,
			FilesSynced:    r.client.FilesSynced,
			FilesFull:      r.client.FilesFull,
			FilesUnchanged: r.client.FilesUnchanged,
			JournalHits:    r.server.JournalHits,
			JournalMisses:  r.server.JournalMisses,
			Converged:      true, // enforced per run by runStoreSync
		}
	}

	rep := &StoreReport{
		Experiment: "store.journal",
		Files:      files,
		FileBytes:  storeFileBytes,
		TotalBytes: total,
		Versions:   storeVersions,
		Note: "v1..v6 snapshots with ~1% churn per step; cold-full syncs from nothing, " +
			"full/journal pairs sync a client holding v5 (one back) and v1 (five back); " +
			"best of 2 after one warm-up; every run verified byte-identical to the live collection",
	}

	cold, err := best(nil, false, 0)
	if err != nil {
		return nil, err
	}
	rep.Points = append(rep.Points, point("cold-full", 0, cold))

	for _, baseV := range []uint64{storeVersions - 1, 1} { // v-1 and v-5
		full, err := best(trees[baseV], false, 0)
		if err != nil {
			return nil, err
		}
		jr, err := best(trees[baseV], true, baseV)
		if err != nil {
			return nil, err
		}
		if jr.server.JournalHits != 1 || jr.server.JournalMisses != 0 {
			return nil, fmt.Errorf("bench: journal from v%d: hits/misses %d/%d, want 1/0",
				baseV, jr.server.JournalHits, jr.server.JournalMisses)
		}
		rep.Points = append(rep.Points, point("full", baseV, full))
		jp := point("journal", baseV, jr)
		if jr.secs > 0 {
			jp.SpeedupVsFull = full.secs / jr.secs
		}
		if full.wire() > 0 {
			jp.WireVsFull = float64(jr.wire()) / float64(full.wire())
		}
		rep.Points = append(rep.Points, jp)
	}
	return rep, nil
}
