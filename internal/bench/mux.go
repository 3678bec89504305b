package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
)

// Reference shape of the multiplexing experiment at Scale 1.0: a wide
// collection of small files where per-session latency dominates — the
// workload stream multiplexing (and before it, the paper's shared-round
// amortization) is built for. Two thirds of the files carry light edits.
const (
	muxFileCount = 10_000
	muxFileBytes = 2 << 10
)

// muxWidths is the sweep of granted stream widths.
var muxWidths = []int{4, 16, 64}

// muxRTTs is the sweep of modeled link latencies.
var muxRTTs = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}

// muxLinkBps is the modeled symmetric bandwidth (10 Mbit/s each way): fast
// enough that latency, not bytes, separates the arms.
const muxLinkBps = 1_250_000

// muxCorpus builds the experiment's tree pair: n small text files, one third
// unchanged, the rest carrying localized edit bursts.
func muxCorpus(opts Options) (v1, v2 map[string][]byte) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := int(float64(muxFileCount) * opts.Scale)
	if n < 24 {
		n = 24
	}
	em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 3, EditSize: 40, BurstSpread: 200}
	v1 = make(map[string][]byte, n)
	v2 = make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("dir%03d/f%05d.txt", i%100, i)
		old := corpus.SourceText(rng, muxFileBytes+rng.Intn(muxFileBytes))
		v1[path] = old
		if i%3 == 0 {
			v2[path] = old
		} else {
			v2[path] = em.Apply(rng, old)
		}
	}
	return v1, v2
}

// runMuxSession runs one collection session at the given stream width (0 =
// legacy lockstep), verifies convergence, and returns the server's session
// costs (the runner holds both ends to the same bytes and roundtrips) and
// the session's in-process wall-clock.
func runMuxSession(serverTree, clientTree map[string][]byte, width int, cfg core.Config) (*stats.Costs, float64, error) {
	srv, err := collection.NewServer(serverTree, cfg)
	if err != nil {
		return nil, 0, err
	}
	srv.MuxStreams = width
	cli := collection.NewClient(clientTree)
	cli.MuxStreams = width
	r, err := runSession(srv, cli)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: mux width %d: %w", width, err)
	}
	if err := collection.VerifyAgainst(r.result.Files, serverTree); err != nil {
		return nil, 0, fmt.Errorf("bench: mux width %d did not converge: %w", width, err)
	}
	return r.server, r.secs, nil
}

// runPerFile models a tool without collection-level sessions: one full
// session per changed file, sequentially over the same link. Unchanged files
// are skipped entirely — a charitable baseline (a real per-file tool would
// pay a handshake for them too).
func runPerFile(serverTree, clientTree map[string][]byte, cfg core.Config) (*stats.Costs, float64, int, error) {
	paths := make([]string, 0, len(serverTree))
	for p, data := range serverTree {
		if old, ok := clientTree[p]; !ok || string(old) != string(data) {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	total := &stats.Costs{}
	start := time.Now()
	for _, p := range paths {
		clientFiles := map[string][]byte{}
		if old, ok := clientTree[p]; ok {
			clientFiles[p] = old
		}
		costs, _, err := runMuxSession(map[string][]byte{p: serverTree[p]}, clientFiles, 0, cfg)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("bench: per-file session %q: %w", p, err)
		}
		total.Merge(costs) // Merge sums the byte matrix, roundtrips and counters
	}
	return total, time.Since(start).Seconds(), len(paths), nil
}

// MuxLink is one modeled-link row of a MuxPoint: estimated wall-clock on a
// symmetric 10 Mbit/s link at the given RTT, with speedups against the two
// baselines.
type MuxLink struct {
	RTTMs int     `json:"rtt_ms"`
	Secs  float64 `json:"seconds"`
	// SpeedupVsPerFile compares against sequential per-file sessions (the
	// no-collection-protocol baseline); SpeedupVsLockstep against the legacy
	// shared-round session — the honest number for what multiplexing adds on
	// top of the paper's own amortization.
	SpeedupVsPerFile  float64 `json:"speedup_vs_per_file,omitempty"`
	SpeedupVsLockstep float64 `json:"speedup_vs_lockstep,omitempty"`
}

// MuxPoint is one arm's measurement in the multiplexing report.
type MuxPoint struct {
	// Arm is per_file, lockstep, or mux; Width is the granted stream width
	// for mux arms.
	Arm      string `json:"arm"`
	Width    int    `json:"width,omitempty"`
	Sessions int    `json:"sessions"`
	// CPUSecs is the arm's in-process wall-clock (no modeled link).
	CPUSecs    float64   `json:"cpu_seconds"`
	WireBytes  int64     `json:"wire_bytes"`
	Roundtrips int       `json:"roundtrips"`
	Converged  bool      `json:"converged"`
	Links      []MuxLink `json:"links"`
}

// MuxReport is the JSON artifact (BENCH_mux.json) of the multiplexing
// experiment: per-file sessions versus one lockstep session versus
// multiplexed sessions at several widths over a wide small-file corpus, with
// wall-clock modeled at 50–200 ms RTT.
type MuxReport struct {
	Experiment string     `json:"experiment"`
	Files      int        `json:"files"`
	Changed    int        `json:"changed"`
	TotalBytes int64      `json:"total_bytes"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	LinkBps    int        `json:"link_bytes_per_second"`
	Points     []MuxPoint `json:"points"`
	Note       string     `json:"note"`
}

// measureMux runs every arm once (the protocol is deterministic, so costs —
// the quantity the link model consumes — do not vary across reps) and models
// each on the RTT sweep.
func measureMux(opts Options) (*MuxReport, error) {
	v1, v2 := muxCorpus(opts)
	var total int64
	for _, data := range v2 {
		total += int64(len(data))
	}
	cfg := bestConfig()

	rep := &MuxReport{
		Experiment: "mux.pipeline",
		Files:      len(v2),
		TotalBytes: total,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LinkBps:    muxLinkBps,
		Note: "wall-clock modeled as bytes/bandwidth + roundtrips*RTT on a symmetric " +
			"10 Mbit/s link; per_file runs one session per changed file sequentially " +
			"(unchanged files charitably skipped); every arm verified converged",
	}

	model := func(c *stats.Costs, baseline func(rtt time.Duration) (perFile, lockstep float64)) []MuxLink {
		links := make([]MuxLink, 0, len(muxRTTs))
		for _, rtt := range muxRTTs {
			l := stats.LinkModel{DownBps: muxLinkBps, UpBps: muxLinkBps, RTT: rtt}
			secs := l.Duration(c).Seconds()
			ml := MuxLink{RTTMs: int(rtt.Milliseconds()), Secs: secs}
			if baseline != nil && secs > 0 {
				pf, ls := baseline(rtt)
				if pf > 0 {
					ml.SpeedupVsPerFile = pf / secs
				}
				if ls > 0 {
					ml.SpeedupVsLockstep = ls / secs
				}
			}
			links = append(links, ml)
		}
		return links
	}

	pfCosts, pfSecs, changed, err := runPerFile(v2, v1, cfg)
	if err != nil {
		return nil, err
	}
	rep.Changed = changed
	rep.Points = append(rep.Points, MuxPoint{
		Arm: "per_file", Sessions: changed, CPUSecs: pfSecs,
		WireBytes: pfCosts.Total(), Roundtrips: pfCosts.Roundtrips,
		Converged: true, Links: model(pfCosts, nil),
	})

	lsCosts, lsSecs, err := runMuxSession(v2, v1, 0, cfg)
	if err != nil {
		return nil, err
	}
	baseline := func(rtt time.Duration) (float64, float64) {
		l := stats.LinkModel{DownBps: muxLinkBps, UpBps: muxLinkBps, RTT: rtt}
		return l.Duration(pfCosts).Seconds(), l.Duration(lsCosts).Seconds()
	}
	rep.Points = append(rep.Points, MuxPoint{
		Arm: "lockstep", Sessions: 1, CPUSecs: lsSecs,
		WireBytes: lsCosts.Total(), Roundtrips: lsCosts.Roundtrips,
		Converged: true, Links: model(lsCosts, func(rtt time.Duration) (float64, float64) {
			pf, _ := baseline(rtt)
			return pf, 0
		}),
	})

	for _, w := range muxWidths {
		costs, secs, err := runMuxSession(v2, v1, w, cfg)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, MuxPoint{
			Arm: "mux", Width: w, Sessions: 1, CPUSecs: secs,
			WireBytes: costs.Total(), Roundtrips: costs.Roundtrips,
			Converged: true, Links: model(costs, baseline),
		})
	}
	return rep, nil
}
