// Command perfbench is msync's regression benchmark. It drives one workload
// as a closed loop of sync sessions, one client at a time, with server and
// client in process over msync.Pipe, checks every session's result, and
// prints its metrics as one JSON object on the last line of standard output.
//
// With -trace 0 it reports the end-to-end metrics from untraced sessions;
// with -trace 1 it attaches tracers to both ends in a separate set of
// sessions and replays each layer's calls on the same inputs, reporting the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"msync"
)

// Run shape.
const (
	// minSessions guarantees a tail percentile with tailBeyond samples
	// beyond it (the median) even when a run's time is short.
	minSessions = 2 * tailBeyond
	// setupReps is how often a -trace 0 run repeats the timed set-up; it
	// reports the median.
	setupReps = 5
	// minReplays is the fewest layer replays a -trace 1 run makes.
	minReplays = 3
)

func main() {
	workload := flag.String("workload", "", "workload: bigfile, wide or journal")
	seed := flag.Int64("seed", 1, "corpus seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	build, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload bigfile|wide|journal -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	os.Exit(run(*workload, build, *seed, *seconds, *trace == 1))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workDir holds each run's scratch trees, inside the checkout the benchmark
// is run from.
const workDir = ".bench_build"

func run(name string, build func(int64, string) (*fixture, error), seed int64, seconds float64, traced bool) int {
	emit("provenance", provenance(seed))
	r := &runner{name: name}
	metrics, details, err := func() (map[string]metric, map[string]any, error) {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, nil, err
		}
		dir, err := os.MkdirTemp(workDir, "perfbench-"+name+"-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		fx, err := build(seed, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("building inputs: %w", err)
		}
		r.fx = fx
		if err := r.prime(); err != nil {
			return nil, nil, err
		}
		if traced {
			return r.traced(seconds)
		}
		return r.endToEnd(seconds)
	}()
	res := result{Correct: err == nil, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	if err != nil {
		// A run that failed any check reports no measurements.
		res.Failed = max(res.Failed, 1)
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", name, err)
	} else {
		res.Metrics = metrics
		details["error_rate"] = float64(r.failed) / float64(res.Attempted)
		emit("details", details)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// emit prints one labelled JSON line ahead of the result line.
func emit(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

// runner runs and checks sessions for one fixture, keeping the failure
// tally and the reference wire streams every session must reproduce.
type runner struct {
	name      string
	fx        *fixture
	attempted int
	failed    int
	firstErr  error
	ref       *session
}

// session runs and checks one session; a failed one is counted and
// returned as an error.
func (r *runner) session(srv *msync.Server, memstats bool, opts ...msync.Option) (*session, error) {
	r.attempted++
	s, err := runSession(srv, func() (*msync.Client, error) { return r.fx.client(opts...) }, memstats)
	if err == nil {
		err = s.check(r.fx.want)
		s.result.Files = nil // checked; keep only the costs
	}
	if err == nil {
		if r.ref == nil {
			r.ref = s
		} else if s.digest != r.ref.digest {
			err = errors.New("wire streams differ from the run's first session")
		} else if s.result.Costs.Roundtrips != r.ref.result.Costs.Roundtrips {
			err = errors.New("roundtrips differ from the run's first session")
		} else if s.costsGap() != r.ref.costsGap() {
			err = errors.New("Costs totals differ from the run's first session")
		}
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("session %d: %w", r.attempted, err)
		}
		return nil, r.firstErr
	}
	return s, nil
}

// loop runs sessions back to back until seconds have passed and at least
// atLeast have completed, calling each (if not nil) after every session. The
// heap is collected before each session so every sample starts from the
// same state.
func (r *runner) loop(srv *msync.Server, seconds float64, atLeast int, memstats bool, each func() error, opts ...msync.Option) ([]*session, error) {
	var out []*session
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out) < atLeast || time.Now().Before(deadline) {
		runtime.GC()
		s, err := r.session(srv, memstats, opts...)
		if err == nil && each != nil {
			err = each()
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// prime fills a workload's signature cache with one untimed set-up and
// session, so every timed set-up starts from the same warm cache. Filling it
// creates 10,000 entry files, whose time depends on the device and its other
// users far more than on the program.
func (r *runner) prime() error {
	if r.fx.cacheDir == "" {
		return nil
	}
	srv, _, err := r.startWarm()
	if err != nil {
		return fmt.Errorf("priming the signature cache: %w", err)
	}
	return srv.Close()
}

// startWarm builds the live server and runs the warm-up session, returning
// the server and the elapsed seconds.
func (r *runner) startWarm(opts ...msync.Option) (*msync.Server, float64, error) {
	if err := r.fx.reset(); err != nil {
		return nil, 0, err
	}
	syscall.Sync() // write back the inputs and reset's deletes and copies first
	runtime.GC()
	t := time.Now()
	srv, err := r.fx.start(opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if _, err := r.session(srv, false); err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return srv, time.Since(t).Seconds(), nil
}

// endToEnd measures the end-to-end metrics from untraced sessions.
func (r *runner) endToEnd(seconds float64) (map[string]metric, map[string]any, error) {
	var setups []float64
	var srv *msync.Server
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.Close()
		}
		var secs float64
		var err error
		if srv, secs, err = r.startWarm(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
	}
	defer srv.Close()
	syscall.Sync() // and the set-up's state before the sessions
	sessions, err := r.loop(srv, seconds, minSessions, false, nil)
	if err != nil {
		return nil, nil, err
	}
	var walls, cpus, rss []float64
	for _, s := range sessions {
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		rss = append(rss, s.rss)
	}
	peakRSS := median(rss)
	if peakRSS == 0 {
		peakRSS = peakRSSMB() // no per-session tracking: the whole run's peak
	}
	p50, tl := median(walls), tailPercentile(walls)
	ref := r.ref
	rt := ref.result.Costs.Roundtrips
	rsyncBytes, deltaBound := baselines(r.fx.pairs)
	m := map[string]metric{
		"sync_s_p50":  {p50, "s"},
		"sync_s_tail": {tl.Value, "s"},
		"time_s_dsl":  {dslLink.seconds(ref.s2c, ref.c2s, rt, p50), "s"},
		"time_s_10m":  {link10M.seconds(ref.s2c, ref.c2s, rt, p50), "s"},
		"wire_bytes":  {float64(ref.wireBytes()), "bytes"},
		"roundtrips":  {float64(rt), "count"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {peakRSS, "MB"},
		"setup_s":     {median(setups), "s"},
	}
	details := map[string]any{
		"workload": r.name, "sessions": len(sessions), "sync_s_tail": tl,
		"setup_s_reps": setups, "c2s_bytes": ref.c2s, "s2c_bytes": ref.s2c,
		"costs_gap_bytes": ref.costsGap(), "files_changed": len(r.fx.pairs), "collection_digest": collectionDigest(r.fx.want),
		"baseline.rsync_bytes": rsyncBytes, "baseline.delta_bound_bytes": deltaBound,
	}
	return m, details, nil
}

// provenance identifies the code, toolchain and host a result came from.
func provenance(seed int64) map[string]any {
	commit, modified := buildRevision()
	return map[string]any{
		"commit": commit, "modified": modified, "source_sha256": sourceDigest("."),
		"go": runtime.Version(), "cpu": cpuModel(), "num_cpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "seed": seed,
		"links": []link{dslLink, link10M},
	}
}
