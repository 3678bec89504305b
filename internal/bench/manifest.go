package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
)

// Reference shape of the manifest-scaling experiment at Scale 1.0: a very
// wide collection of tiny files with ~1% churn, where change-detection cost
// dominates the session — the workload tree manifests are built for.
const (
	manifestFileCount = 200_000
	manifestFileBytes = 224 // below the sync threshold: changed files go whole
)

// runManifestSync runs one session of cli against srv, or against a fresh
// server over want when srv is nil (cold: construction is timed), and
// requires the result to equal want.
func runManifestSync(want map[string][]byte, srv *collection.Server, cli *collection.Client, cfg core.Config) (*sessionRun, error) {
	start := time.Now()
	if srv == nil {
		var err error
		if srv, err = collection.NewServer(want, cfg); err != nil {
			return nil, err
		}
	}
	r, err := runSession(srv, cli)
	if err != nil {
		return nil, fmt.Errorf("bench: manifest: %w", err)
	}
	r.secs = time.Since(start).Seconds()
	if err := collection.VerifyAgainst(r.result.Files, want); err != nil {
		return nil, fmt.Errorf("bench: manifest run did not converge: %w", err)
	}
	return r, nil
}

// ManifestPoint is one arm's measurement in the manifest-scaling report.
type ManifestPoint struct {
	// Arm is flat (full fingerprint manifest), tree-cold (merkle descent,
	// cold caches), tree-cached (merkle descent, warm tree caches plus
	// speculative descent), rename-flat / rename-tree / rename-cross (the
	// pure-rename corpus without and with cross-file matching).
	Arm          string  `json:"arm"`
	Secs         float64 `json:"seconds"`
	WireBytes    int64   `json:"wire_bytes"`
	ControlBytes int64   `json:"control_bytes"`
	DeltaBytes   int64   `json:"delta_bytes"`
	FullBytes    int64   `json:"full_bytes"`
	Roundtrips   int     `json:"roundtrips"`
	TreeRounds   int     `json:"tree_rounds"`

	FilesUnchanged int   `json:"files_unchanged"`
	FilesFull      int   `json:"files_full"`
	FilesSynced    int   `json:"files_synced"`
	FilesRenamed   int   `json:"files_renamed"`
	FilesRebased   int   `json:"files_rebased"`
	RenameSaved    int64 `json:"rename_bytes_saved"`

	// Converged reports that the result matched the server's collection
	// exactly (enforced per run; a non-converged run fails the experiment).
	Converged bool `json:"converged"`
	// ControlVsFlat compares this arm's control bytes against the flat arm
	// on the same corpus (churn arms only).
	ControlVsFlat float64 `json:"control_fraction_of_flat,omitempty"`
}

// ManifestReport is the JSON artifact (BENCH_manifest.json) of the
// manifest-scaling experiment: flat manifest versus merkle-tree change
// detection (cold and cached+speculative) on a wide collection with ~1%
// churn, plus a pure-rename corpus without and with cross-file matching.
type ManifestReport struct {
	Experiment  string          `json:"experiment"`
	Files       int             `json:"files"`
	FileBytes   int             `json:"file_bytes"`
	TotalBytes  int64           `json:"total_bytes"`
	ChangedPct  float64         `json:"changed_pct"`
	RenameFiles int             `json:"rename_files"`
	Points      []ManifestPoint `json:"points"`
	Note        string          `json:"note"`
}

// manifestChurn derives the server's version: ~1% of files edited, a few
// added and deleted — the repeat-sync steady state.
func manifestChurn(rng *rand.Rand, tree map[string][]byte) (map[string][]byte, int) {
	next := make(map[string][]byte, len(tree))
	paths := make([]string, 0, len(tree))
	for k, v := range tree {
		next[k] = v
		paths = append(paths, k)
	}
	sort.Strings(paths)
	changed := 0
	em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 3, EditSize: 30, BurstSpread: 100}
	for i, p := range paths {
		switch {
		case i%100 == 7: // ~1% edited
			next[p] = em.Apply(rng, next[p])
			changed++
		case i%1000 == 3: // ~0.1% deleted
			delete(next, p)
			changed++
		}
	}
	adds := len(paths) / 1000
	for i := 0; i < adds; i++ {
		next[fmt.Sprintf("churn/new%05d.txt", i)] = corpus.SourceText(rng, manifestFileBytes)
		changed++
	}
	return next, changed
}

// measureManifest runs the manifest-scaling experiment.
func measureManifest(opts Options) (*ManifestReport, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	files := int(float64(manifestFileCount) * opts.Scale)
	if files < 500 {
		files = 500
	}

	v1 := make(map[string][]byte, files)
	var total int64
	for i := 0; i < files; i++ {
		data := corpus.SourceText(rng, manifestFileBytes)
		v1[fmt.Sprintf("dir%03d/sub%02d/f%06d.txt", i%97, (i/97)%41, i)] = data
		total += int64(len(data))
	}
	v2, changed := manifestChurn(rng, v1)

	cfg := bestConfig()
	rep := &ManifestReport{
		Experiment: "manifest.scaling",
		Files:      files,
		FileBytes:  manifestFileBytes,
		TotalBytes: total,
		ChangedPct: 100 * float64(changed) / float64(files),
		Note: "flat manifest vs merkle tree (cold, and cached+speculative) at ~1% churn on a " +
			"wide tiny-file corpus, plus a rename-heavy corpus without and with cross-file " +
			"matching; every run verified byte-identical to the server's collection",
	}

	point := func(arm string, r *sessionRun) ManifestPoint {
		return ManifestPoint{
			Arm:            arm,
			Secs:           r.secs,
			WireBytes:      r.wire(),
			ControlBytes:   r.client.PhaseTotal(stats.PhaseControl),
			DeltaBytes:     r.client.PhaseTotal(stats.PhaseDelta),
			FullBytes:      r.client.PhaseTotal(stats.PhaseFull),
			Roundtrips:     r.client.Roundtrips,
			TreeRounds:     r.client.TreeRounds,
			FilesUnchanged: r.client.FilesUnchanged,
			FilesFull:      r.client.FilesFull,
			FilesSynced:    r.client.FilesSynced,
			FilesRenamed:   r.client.FilesRenamed,
			FilesRebased:   r.client.FilesRebased,
			RenameSaved:    r.client.RenameBytesSaved,
			Converged:      true, // enforced by runManifestSync
		}
	}

	// Arm 1: flat manifest.
	flatCli := collection.NewClient(v1)
	flat, err := runManifestSync(v2, nil, flatCli, cfg)
	if err != nil {
		return nil, err
	}
	flatPt := point("flat", flat)
	rep.Points = append(rep.Points, flatPt)

	// Arm 2: tree descent, everything cold.
	coldCli := collection.NewClient(v1)
	coldCli.TreeManifest = true
	cold, err := runManifestSync(v2, nil, coldCli, cfg)
	if err != nil {
		return nil, err
	}
	coldPt := point("tree-cold", cold)
	coldPt.ControlVsFlat = float64(coldPt.ControlBytes) / float64(flatPt.ControlBytes)
	rep.Points = append(rep.Points, coldPt)

	// Arm 3: tree descent with warm caches and speculative descent. The
	// same client and server instances first sync v1 against v1 (builds and
	// rebases the trees), then the measured session runs against v2.
	warmCli := collection.NewClient(v1)
	warmCli.TreeManifest = true
	warmCli.SpeculativeDescent = true
	warmSrv, err := collection.NewServer(v2, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := runManifestSync(v2, warmSrv, warmCli, cfg); err != nil {
		return nil, err // warm-up: builds both sides' trees
	}
	warm, err := runManifestSync(v2, warmSrv, warmCli, cfg)
	if err != nil {
		return nil, err
	}
	warmPt := point("tree-cached", warm)
	warmPt.ControlVsFlat = float64(warmPt.ControlBytes) / float64(flatPt.ControlBytes)
	rep.Points = append(rep.Points, warmPt)

	// Rename corpus: pure renames and moved-and-edited files. Floored so
	// tiny-scale runs still hold a meaningful population of each class.
	rs := opts.Scale * 4
	if rs < 0.5 {
		rs = 0.5
	}
	rp := corpus.DefaultRenameProfile(rs)
	r1, r2 := rp.Generate(opts.Seed + 1)
	rep.RenameFiles = len(r1.Files)
	for _, arm := range []struct {
		name  string
		tree  bool
		cross bool
	}{
		{"rename-flat", false, false},
		{"rename-tree", true, false},
		{"rename-cross", true, true},
	} {
		cli := collection.NewClient(r1.Map())
		cli.TreeManifest = arm.tree
		cli.SpeculativeDescent = arm.tree
		cli.CrossFileMatch = arm.cross
		r, err := runManifestSync(r2.Map(), nil, cli, cfg)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, point(arm.name, r))
	}
	return rep, nil
}
