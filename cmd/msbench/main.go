// Command msbench regenerates the paper's evaluation tables and figures
// (Section 6) plus this repository's ablations on synthetic corpora.
//
// Usage:
//
//	msbench                      # run everything at default scale
//	msbench -exp fig6.1          # one experiment
//	msbench -scale 2 -seed 7     # bigger corpus, different seed
//	msbench -list                # list experiment ids
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"msync/internal/bench"
	"msync/internal/pool"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (default: all)")
		scale     = flag.Float64("scale", 1.0, "corpus scale factor")
		seed      = flag.Int64("seed", 42, "corpus seed")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		cacheMode = flag.String("cache", "off", "signature-cache condition for parallel.scan: off, cold or warm (never changes wire bytes)")
	)
	// Each -*-json flag writes one report (a BENCH_*.json artifact) and
	// exits; when several are set, the first in this table wins.
	reports := []struct{ flag, experiment, about string }{
		{"scan-json", "parallel.scan", ""},
		{"cache-json", "cache.sync", "repeat-sync signature cache"},
		{"store-json", "store.journal", "versioned store, journal fast path"},
		{"mux-json", "mux.pipeline", "multiplexed streams vs per-file/lockstep sessions"},
		{"manifest-json", "manifest.scaling", "flat vs merkle-tree change detection, cross-file matching"},
		{"pub-json", "pub.fanout", "published artifacts vs interactive protocol under N readers"},
		{"cdc-json", "cdc.map", "CDC vs halving map construction on adversarial corpora"},
	}
	reportPaths := make([]*string, len(reports))
	for i, r := range reports {
		what := r.experiment
		if r.about != "" {
			what += " (" + r.about + ")"
		}
		reportPaths[i] = flag.String(r.flag, "", "write the "+what+" report as JSON to this file and exit")
	}
	flag.Parse()

	if pool.Parallelism() == 1 {
		fmt.Fprintln(os.Stderr, "WARNING: effective parallelism is 1 (GOMAXPROCS or CPU count); "+
			"every -workers point collapses to the serial path and parallel speedups "+
			"cannot exceed 1.0. Re-run with GOMAXPROCS unset (or >= NumCPU) on a "+
			"multi-core host for meaningful scan-scaling numbers.")
	}

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	opts := bench.Options{Scale: *scale, Seed: *seed, CacheMode: *cacheMode}

	for i, r := range reports {
		path := *reportPaths[i]
		if path == "" {
			continue
		}
		out, err := bench.ReportJSON(r.experiment, opts)
		if err == nil {
			err = os.WriteFile(path, out, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
		return
	}

	ids := bench.Experiments()
	if *exp != "" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		table, err := bench.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csv {
			table.RenderCSV(os.Stdout)
			fmt.Println()
			continue
		}
		table.Render(os.Stdout)
		fmt.Printf("  [%s in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
}
