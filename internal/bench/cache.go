package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/dirio"
	"msync/internal/obs"
	"msync/internal/sigcache"
	"msync/internal/stats"
)

// Reference shape of the repeated-sync experiment at Scale 1.0: a tree large
// enough that manifest hashing dominates an unchanged-tree session.
const (
	cacheFileBytes = 512 << 10
	cacheFileCount = 64
)

// cacheRun is one measured repeat synchronization of an unchanged tree.
type cacheRun struct {
	*sessionRun        // secs cover source construction + the whole session
	mallocs     uint64 // heap allocations during the run (both sides)
	events      []obs.Event
}

// runCacheSync opens both trees, builds their sources over the given caches
// (nil = uncached streaming) and runs one full session, measuring everything
// from tree open to session end — the cost a repeat CLI invocation pays.
func runCacheSync(serverDir, clientDir string, serverCache, clientCache *sigcache.Cache, cfg core.Config) (*cacheRun, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	sTree, werrs, err := dirio.OpenTree(serverDir)
	if err != nil || len(werrs) > 0 {
		return nil, fmt.Errorf("bench: open %s: %v (%d file errors)", serverDir, err, len(werrs))
	}
	cTree, werrs, err := dirio.OpenTree(clientDir)
	if err != nil || len(werrs) > 0 {
		return nil, fmt.Errorf("bench: open %s: %v (%d file errors)", clientDir, err, len(werrs))
	}
	srvSrc := collection.NewTreeSource(sTree, serverCache, collection.ConfigFingerprint(&cfg), false)
	cliSrc := collection.NewTreeSource(cTree, clientCache, 0, false)

	srv, err := collection.NewServerSource(srvSrc, cfg)
	if err != nil {
		return nil, err
	}
	cli := collection.NewClientSource(cliSrc)
	cli.LazyResult = true
	// Both sides share one ring so the report can show the session's
	// per-round span shape. Tracing never changes the bytes on the wire, and
	// its fixed per-phase cost is identical across the cache modes compared.
	ring := obs.NewRing(256)
	srv.Tracer = ring
	cli.Tracer = ring

	s, err := runSession(srv, cli)
	if err != nil {
		return nil, fmt.Errorf("bench: cache: %w", err)
	}
	s.secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	return &cacheRun{sessionRun: s, mallocs: ms1.Mallocs - ms0.Mallocs, events: ring.Events()}, nil
}

// writeCacheTree materializes the experiment tree under dir.
func writeCacheTree(dir string, opts Options) (files, fileBytes int, total int64, err error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	files = int(float64(cacheFileCount) * opts.Scale)
	if files < 8 {
		files = 8
	}
	fileBytes = cacheFileBytes
	for i := 0; i < files; i++ {
		data := corpus.SourceText(rng, fileBytes)
		p := filepath.Join(dir, fmt.Sprintf("pkg%02d", i%8), fmt.Sprintf("file%03d.txt", i))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return 0, 0, 0, err
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return 0, 0, 0, err
		}
		total += int64(len(data))
	}
	return files, fileBytes, total, nil
}

// CachePoint is one mode's measurement in the repeated-sync report.
type CachePoint struct {
	Mode        string  `json:"mode"` // off | cold | warm
	Secs        float64 `json:"seconds"`
	BytesHashed int64   `json:"bytes_hashed"`
	BlockHashes int64   `json:"block_hashes_computed"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Mallocs     uint64  `json:"mallocs"`
	WireBytes   int64   `json:"wire_bytes"`
	// WireIdentical reports that both directions' byte streams matched the
	// cache-off run exactly — the cache must never change the protocol.
	WireIdentical bool `json:"wire_identical_to_off"`
	// SpeedupVsCold is cold wall-clock divided by this mode's (warm only).
	SpeedupVsCold float64 `json:"speedup_vs_cold,omitempty"`
	// Trace is the client-side per-phase span summary of the measured run;
	// the summed span bytes reproduce the session's wire totals.
	Trace []TraceSpan `json:"trace,omitempty"`
}

// CacheReport is the JSON artifact (BENCH_cache.json) of the repeated-sync
// experiment: the second sync of an unchanged tree with the signature cache
// off, cold and warm.
type CacheReport struct {
	Experiment string       `json:"experiment"`
	Files      int          `json:"files"`
	FileBytes  int          `json:"file_bytes"`
	TotalBytes int64        `json:"total_bytes"`
	Points     []CachePoint `json:"points"`
	Note       string       `json:"note"`
}

// measureCache runs the off/cold/warm sweep behind the table and the JSON
// report. Every measured run opens the trees from scratch, so "warm" pays
// the stat calls and disk-cache loads a real repeat invocation would.
func measureCache(opts Options) (*CacheReport, error) {
	root, err := os.MkdirTemp("", "msync-bench-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	serverDir := filepath.Join(root, "server")
	clientDir := filepath.Join(root, "client")
	files, fileBytes, total, err := writeCacheTree(serverDir, opts)
	if err != nil {
		return nil, err
	}
	// The client holds an identical copy: the repeat-sync scenario.
	if _, _, _, err := writeCacheTree(clientDir, opts); err != nil {
		return nil, err
	}
	cfg := bestConfig()

	const reps = 4 // first run of each mode is a warm-up for the OS page cache

	off, err := bestOf(reps, func(int) (*cacheRun, error) {
		return runCacheSync(serverDir, clientDir, nil, nil, cfg)
	})
	if err != nil {
		return nil, err
	}

	// Cold: every rep gets fresh, empty cache directories so each run pays
	// the full miss cost. Rep 0's directories double as the warm store.
	cacheDir := func(rep int, side string) string {
		return filepath.Join(root, fmt.Sprintf("cache-%d-%s", rep, side))
	}
	cold, err := bestOf(reps, func(rep int) (*cacheRun, error) {
		sc := sigcache.New(sigcache.Options{Dir: cacheDir(rep, "server")})
		cc := sigcache.New(sigcache.Options{Dir: cacheDir(rep, "client")})
		return runCacheSync(serverDir, clientDir, sc, cc, cfg)
	})
	if err != nil {
		return nil, err
	}

	// Warm: fresh Cache instances over rep 0's populated directories, so
	// hits come through the on-disk store the way a new process would see it.
	warm, err := bestOf(reps, func(int) (*cacheRun, error) {
		sc := sigcache.New(sigcache.Options{Dir: cacheDir(0, "server")})
		cc := sigcache.New(sigcache.Options{Dir: cacheDir(0, "client")})
		return runCacheSync(serverDir, clientDir, sc, cc, cfg)
	})
	if err != nil {
		return nil, err
	}

	rep := &CacheReport{
		Experiment: "cache.sync",
		Files:      files,
		FileBytes:  fileBytes,
		TotalBytes: total,
		Note: "repeat sync of an unchanged tree; seconds cover tree open + whole session, " +
			"best of 3 after one warm-up; warm mode must hash nothing and stay byte-identical on the wire",
	}
	for _, p := range []struct {
		mode string
		r    *cacheRun
	}{{"off", off}, {"cold", cold}, {"warm", warm}} {
		var both stats.Costs
		both.Merge(p.r.server)
		both.Merge(p.r.client)
		pt := CachePoint{
			Mode:          p.mode,
			Secs:          p.r.secs,
			BytesHashed:   both.BytesHashed,
			BlockHashes:   both.BlockHashesComputed,
			CacheHits:     both.CacheHits,
			CacheMisses:   both.CacheMisses,
			Mallocs:       p.r.mallocs,
			WireBytes:     p.r.wire(),
			WireIdentical: bytes.Equal(p.r.s2c, off.s2c) && bytes.Equal(p.r.c2s, off.c2s),
			Trace:         summarizeTrace(p.r.events, "client"),
		}
		if p.mode == "warm" && p.r.secs > 0 {
			pt.SpeedupVsCold = cold.secs / p.r.secs
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// CacheSync is the table view of the repeated-sync experiment for the
// msbench sweep: unchanged-tree repeat sync with the signature cache off,
// cold and warm.
func CacheSync(opts Options) *Table {
	rep, err := measureCache(opts)
	if err != nil {
		panic(fmt.Sprintf("bench: cache sync: %v", err))
	}
	t := &Table{
		Title:   "Extension — persistent signature cache (repeat sync, unchanged tree)",
		Columns: []string{"ms", "hashed MB", "blk hashes", "hits", "misses", "identical"},
	}
	for _, p := range rep.Points {
		ident := 0.0
		if p.WireIdentical {
			ident = 1
		}
		t.Rows = append(t.Rows, Row{
			Name: "cache=" + p.Mode,
			Values: []float64{
				p.Secs * 1000,
				float64(p.BytesHashed) / (1 << 20),
				float64(p.BlockHashes),
				float64(p.CacheHits),
				float64(p.CacheMisses),
				ident,
			},
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d files x %d KB; seconds cover tree open + session", rep.Files, rep.FileBytes>>10),
		"identical=1 means both directions matched the cache-off byte stream exactly")
	return t
}
