package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/md4"
	"msync/internal/obs"
	"msync/internal/pool"
	"msync/internal/sigcache"
)

// scanFileBytes is the reference file size for the scan-scaling experiment
// (at Scale 1.0): large enough that map construction is dominated by the
// client's rolling-hash scans over the old file.
const scanFileBytes = 8 << 20

// scanWorkerCounts is the sweep of the Workers knob.
var scanWorkerCounts = []int{1, 2, 4, 8}

// scanRun is one measured synchronization at a fixed worker count.
type scanRun struct {
	clientSecs  float64 // wall-clock inside client engine calls (map phase)
	totalSecs   float64 // wall-clock for the whole session
	wireBytes   int64   // map-phase + delta payload bytes
	blockHashes int64   // server-side block/probe hashes computed
	bytesHashed int64   // server-side bytes fed through hash functions
	transcript  []byte  // every frame, length-prefixed, in exchange order
}

// runScan drives both engines in process (the SyncLocal loop), timing the
// client's map-construction calls and recording the full frame transcript so
// runs at different worker counts can be compared byte for byte. sig, when
// non-nil, is attached to the server engine (the signature-cache condition);
// the transcript must not depend on it.
func runScan(fOld, fNew []byte, cfg core.Config, sig *sigcache.Sig) (*scanRun, error) {
	srv, err := core.NewServerFile(fNew, &cfg)
	if err != nil {
		return nil, err
	}
	srv.UseSignature(sig)
	cli, err := core.NewClientFile(fOld, len(fNew), &cfg)
	if err != nil {
		return nil, err
	}
	r := &scanRun{}
	var tr bytes.Buffer
	record := func(frame []byte) {
		r.wireBytes += int64(len(frame))
		var lenBuf [4]byte
		for i, n := 0, len(frame); i < 4; i, n = i+1, n>>8 {
			lenBuf[i] = byte(n)
		}
		tr.Write(lenBuf[:])
		tr.Write(frame)
	}

	start := time.Now()
	for srv.Active() {
		hashes := srv.EmitHashes()
		record(hashes)
		t0 := time.Now()
		if err := cli.AbsorbHashes(hashes); err != nil {
			return nil, err
		}
		reply := cli.EmitReply()
		r.clientSecs += time.Since(t0).Seconds()
		record(reply)
		more, err := srv.AbsorbReply(reply)
		if err != nil {
			return nil, err
		}
		for more {
			confirm := srv.EmitConfirm()
			record(confirm)
			t0 = time.Now()
			cliMore, err := cli.AbsorbConfirm(confirm)
			if err != nil {
				return nil, err
			}
			if !cliMore {
				return nil, fmt.Errorf("bench: engine desync in scan experiment")
			}
			batch := cli.EmitBatch()
			r.clientSecs += time.Since(t0).Seconds()
			record(batch)
			more, err = srv.AbsorbBatch(batch)
			if err != nil {
				return nil, err
			}
		}
	}
	dl := srv.EmitDelta()
	record(dl)
	if _, err := cli.ApplyDelta(dl); err != nil {
		return nil, err
	}
	r.totalSecs = time.Since(start).Seconds()
	r.blockHashes = srv.BlockHashesComputed
	r.bytesHashed = srv.BytesHashed
	r.transcript = tr.Bytes()
	return r, nil
}

// scanSig prepares the server-side signature for the sweep's cache mode:
// nil for "off"/"", a per-run fresh signature for "cold" (pass nil here and
// build per rep), or a fully precomputed one for "warm".
func scanSig(mode string, fNew []byte, cfg core.Config) (warm *sigcache.Sig, perRun func() *sigcache.Sig, err error) {
	switch mode {
	case "", "off":
		return nil, func() *sigcache.Sig { return nil }, nil
	case "cold":
		return nil, func() *sigcache.Sig {
			return sigcache.NewSig(int64(len(fNew)), md4.Sum(fNew))
		}, nil
	case "warm":
		warm, err = core.PrecomputeSignature(fNew, &cfg)
		if err != nil {
			return nil, nil, err
		}
		return warm, func() *sigcache.Sig { return warm }, nil
	default:
		return nil, nil, fmt.Errorf("bench: unknown cache mode %q (off, cold, warm)", mode)
	}
}

// scanPair builds the experiment's old/new file pair: multi-MB source text
// with localized edit bursts, so most of the old file survives and the
// client's scans dominate map construction.
func scanPair(opts Options) (old, cur []byte) {
	rng := rand.New(rand.NewSource(opts.Seed))
	n := int(float64(scanFileBytes) * opts.Scale)
	if n < 1<<16 {
		n = 1 << 16
	}
	old = corpus.SourceText(rng, n)
	em := corpus.EditModel{BurstsPer32KB: 1, BurstEdits: 3, EditSize: 60, BurstSpread: 400}
	return old, em.Apply(rng, old)
}

// ScanPoint is one worker count's measurement in the scan-scaling report.
type ScanPoint struct {
	Workers int `json:"workers"`
	// EffectiveWorkers is what the Workers knob resolved to after the
	// parallelism clamp (min(GOMAXPROCS, CPUs)); GOMAXPROCS records the
	// setting in force when this point was measured. A point whose requested
	// workers exceed the host's real parallelism reuses the serial
	// measurement (ReusedSerial) — the clamp makes the executions identical,
	// so re-timing them would only report scheduler noise as "speedup".
	EffectiveWorkers int  `json:"effective_workers"`
	GOMAXPROCS       int  `json:"gomaxprocs"`
	ReusedSerial     bool `json:"reused_serial_measurement,omitempty"`

	ClientMapSecs float64 `json:"client_map_seconds"`
	TotalSecs     float64 `json:"total_seconds"`
	// SpeedupVsSerial is serial client-map wall-clock divided by this run's.
	SpeedupVsSerial float64 `json:"client_map_speedup_vs_serial"`
	WireBytes       int64   `json:"wire_bytes"`
	// WireIdentical reports that every frame matched the Workers=1 run byte
	// for byte — the determinism invariant the parallel paths guarantee.
	WireIdentical bool `json:"wire_identical_to_serial"`
	// BlockHashes / BytesHashed count server-side hashing work; the cache
	// modes (Options.CacheMode) show up here, never in the wire columns.
	BlockHashes int64 `json:"block_hashes_computed"`
	BytesHashed int64 `json:"bytes_hashed"`
}

// ScanReport is the JSON artifact (BENCH_scan.json) of the scan-scaling
// experiment: client map-construction wall-clock per worker count on one
// large file, with the wire-determinism check. Speedup beyond 1.0 requires
// GOMAXPROCS > 1; the field records what the measuring host offered.
type ScanReport struct {
	Experiment string      `json:"experiment"`
	FileBytes  int         `json:"file_bytes"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CacheMode  string      `json:"cache_mode"`
	Points     []ScanPoint `json:"points"`
	// Trace is the per-round span summary of one untimed serial run over the
	// same file pair: bytes each way, match candidates seen and confirmed per
	// map-construction round, then the delta transfer and session total.
	Trace []TraceSpan `json:"trace,omitempty"`
	Note  string      `json:"note"`
}

// measureScan runs the sweep behind both the table and the JSON report.
func measureScan(opts Options) (*ScanReport, error) {
	old, cur := scanPair(opts)
	cfg := bestConfig()

	mode := opts.CacheMode
	if mode == "" {
		mode = "off"
	}
	_, sigFor, err := scanSig(mode, cur, cfg)
	if err != nil {
		return nil, err
	}
	rep := &ScanReport{
		Experiment: "parallel.scan",
		FileBytes:  len(cur),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CacheMode:  mode,
		Note: "client_map_seconds is wall-clock inside client engine calls " +
			"(AbsorbHashes/EmitReply/AbsorbConfirm/EmitBatch); best of " +
			"3 runs per worker count after one warm-up; points whose workers " +
			"exceed the host's effective parallelism reuse the serial " +
			"measurement (see reused_serial_measurement)",
	}
	var serial *scanRun
	for _, w := range scanWorkerCounts {
		eff := pool.Workers(w)
		reused := w > 1 && eff == 1 && serial != nil
		var best *scanRun
		if reused {
			// The clamp resolves this point to the serial execution path;
			// reuse its measurement instead of re-timing identical work, so
			// `-workers N` is reported (and is) never worse than serial.
			best = serial
		} else {
			cfg.Workers = w
			for rep := 0; rep < 4; rep++ {
				r, err := runScan(old, cur, cfg, sigFor())
				if err != nil {
					return nil, err
				}
				if rep == 0 {
					continue // warm-up
				}
				if best == nil || r.clientSecs < best.clientSecs {
					best = r
				}
			}
		}
		if w == 1 {
			serial = best
		}
		p := ScanPoint{
			Workers:          w,
			EffectiveWorkers: eff,
			GOMAXPROCS:       runtime.GOMAXPROCS(0),
			ReusedSerial:     reused,
			ClientMapSecs:    best.clientSecs,
			TotalSecs:        best.totalSecs,
			WireBytes:        best.wireBytes,
			WireIdentical:    bytes.Equal(best.transcript, serial.transcript),
			BlockHashes:      best.blockHashes,
			BytesHashed:      best.bytesHashed,
		}
		if best.clientSecs > 0 {
			p.SpeedupVsSerial = serial.clientSecs / best.clientSecs
		}
		rep.Points = append(rep.Points, p)
	}
	// One untimed serial pass with the core tracer attached records the
	// session's per-round shape (every timed run above stays trace-free).
	cfg.Workers = 1
	ring := obs.NewRing(64)
	if _, err := core.SyncLocalTraced(context.Background(), old, cur, cfg, ring); err != nil {
		return nil, err
	}
	rep.Trace = summarizeTrace(ring.Events(), "core")
	return rep, nil
}

// ParallelScan is the table view of the scan-scaling experiment for the
// msbench sweep: map-construction wall-clock against the Workers knob, with
// the wire-determinism bit (1 = byte-identical to the serial run).
func ParallelScan(opts Options) *Table {
	rep, err := measureScan(opts)
	if err != nil {
		panic(fmt.Sprintf("bench: scan scaling: %v", err))
	}
	t := &Table{
		Title:   "Extension — parallel map construction (single large file, client side)",
		Columns: []string{"map ms", "total ms", "speedup", "wire KB", "identical"},
	}
	for _, p := range rep.Points {
		ident := 0.0
		if p.WireIdentical {
			ident = 1
		}
		t.Rows = append(t.Rows, Row{
			Name: fmt.Sprintf("workers=%d", p.Workers),
			Values: []float64{
				p.ClientMapSecs * 1000,
				p.TotalSecs * 1000,
				p.SpeedupVsSerial,
				float64(p.WireBytes) / 1024,
				ident,
			},
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("file: %d bytes; GOMAXPROCS=%d (speedup needs >1 CPU)", rep.FileBytes, rep.GOMAXPROCS),
		"identical=1 means every frame matched the workers=1 transcript byte for byte")
	return t
}
