package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"msync"
	"msync/internal/md4"
	"msync/internal/obs"
)

// tracedMinSessions is the fewest sessions each half of a traced run makes.
const tracedMinSessions = 5

// ringEvents bounds the events kept per traced session (a session emits a
// few dozen).
const ringEvents = 1 << 14

// layerSample is one replay of every layer's calls on a session's inputs.
type layerSample struct {
	core                  *coreReplay
	md4Bytes              int64
	md4S                  float64
	dirio                 *dirioReplay
	storeOpen, storeDelta float64
}

// traced measures the per-layer metrics. It splits its time in three:
// untraced sessions (the baseline for the tracing overhead, with allocation
// counts), sessions with a tracer on both ends (span times per protocol
// phase), and replays of each layer's public calls on the same inputs.
func (r *runner) traced(seconds float64) (map[string]metric, map[string]any, error) {
	part := seconds / 3

	srv, _, err := r.startWarm()
	if err != nil {
		return nil, nil, err
	}
	syscall.Sync()
	plain, err := r.loop(srv, part, tracedMinSessions, true, nil)
	srv.Close()
	if err != nil {
		return nil, nil, err
	}

	ring := msync.NewRingTracer(ringEvents)
	if srv, _, err = r.startWarm(msync.WithTracer(ring)); err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	syscall.Sync()
	var client []spans
	ring.Reset()
	traced, err := r.loop(srv, part, tracedMinSessions, false, func() error {
		if ring.Total() > ringEvents {
			return fmt.Errorf("session emitted %d trace events, more than the ring keeps", ring.Total())
		}
		client = append(client, sumSpans(ring.Events(), "client"))
		ring.Reset()
		return nil
	}, msync.WithTracer(ring))
	if err != nil {
		return nil, nil, err
	}

	first := traced[0]
	cc, sc := first.result.Costs, first.server
	engine := r.fx.pairs
	if cc.FilesSynced == 0 {
		engine = nil // every change came from the journal, none through the engine
	}
	hashed := r.hashedFiles(cc)
	var baseDigest, curDigest [md4.Size]byte
	if r.fx.storeDir != "" {
		baseDigest, curDigest = manifestDigest(r.fx.base), manifestDigest(r.fx.want)
	}
	var samples []layerSample
	deadline := time.Now().Add(time.Duration(part * float64(time.Second)))
	for len(samples) < minReplays || time.Now().Before(deadline) {
		runtime.GC()
		var ls layerSample
		if ls.core, err = replayCore(engine, msync.DefaultConfig()); err != nil {
			return nil, nil, err
		}
		ls.md4Bytes, ls.md4S = replayMD4(hashed)
		ls.dirio = &dirioReplay{}
		if r.fx.replica != "" {
			if ls.dirio, err = replayDirio(r.fx.replica); err != nil {
				return nil, nil, fmt.Errorf("dirio replay: %w", err)
			}
		}
		if r.fx.storeDir != "" {
			if ls.storeOpen, ls.storeDelta, err = replayStore(r.fx.storeDir, r.fx.baseVersion, baseDigest, curDigest); err != nil {
				return nil, nil, fmt.Errorf("store replay: %w", err)
			}
		}
		samples = append(samples, ls)
	}

	med := func(f func(layerSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	spanMed := func(phase string) float64 {
		xs := make([]float64, len(client))
		for i, s := range client {
			xs[i] = s.dur[phase]
		}
		return median(xs)
	}
	sessMed := func(ss []*session, f func(*session) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	wall := func(s *session) float64 { return s.wall }
	tracedP50, plainP50 := sessMed(traced, wall), sessMed(plain, wall)

	c := samples[0].core
	scan := med(func(s layerSample) float64 { return s.core.scan })
	coreTotal := med(func(s layerSample) float64 { return s.core.total() })
	md4S := med(func(s layerSample) float64 { return s.md4S })
	walk := med(func(s layerSample) float64 { return s.dirio.walk })
	read := med(func(s layerSample) float64 { return s.dirio.read })
	storeDelta := med(func(s layerSample) float64 { return s.storeDelta })
	rsyncBytes, deltaBound := baselines(r.fx.pairs)
	cs := client[0]

	m := map[string]metric{
		"core.scan_s":          {scan, "s"},
		"core.scan_mb_per_s":   {rate(c.basisBytes, scan), "MB/s"},
		"core.hash_s":          {med(func(s layerSample) float64 { return s.core.hash }), "s"},
		"core.verify_s":        {med(func(s layerSample) float64 { return s.core.verify }), "s"},
		"core.delta_encode_s":  {med(func(s layerSample) float64 { return s.core.encode }), "s"},
		"core.delta_apply_s":   {med(func(s layerSample) float64 { return s.core.apply }), "s"},
		"core.rounds":          {float64(c.rounds), "count"},
		"core.candidates":      {float64(c.candidates), "count"},
		"core.confirmed":       {float64(c.confirmed), "count"},
		"core.candidate_yield": {ratio(c.confirmed, c.candidates), "ratio"},
		"core.fallbacks":       {float64(c.fallbacks), "count"},
		"core.map_bytes":       {float64(c.mapBytes), "bytes"},
		"core.delta_bytes":     {float64(c.deltaBytes), "bytes"},

		"md4.bytes":    {float64(samples[0].md4Bytes), "bytes"},
		"md4.s":        {md4S, "s"},
		"md4.mb_per_s": {rate(samples[0].md4Bytes, md4S), "MB/s"},

		"dirio.files":         {float64(samples[0].dirio.files), "count"},
		"dirio.walk_s":        {walk, "s"},
		"dirio.read_s":        {read, "s"},
		"dirio.read_mb_per_s": {rate(samples[0].dirio.bytes, read), "MB/s"},

		"sigcache.hits":      {float64(cc.CacheHits), "count"},
		"sigcache.misses":    {float64(cc.CacheMisses), "count"},
		"sigcache.hit_ratio": {ratio(cc.CacheHits, cc.CacheHits+cc.CacheMisses), "ratio"},

		"store.ingest_s":       {r.fx.ingestS, "s"},
		"store.open_s":         {med(func(s layerSample) float64 { return s.storeOpen }), "s"},
		"store.delta_s":        {storeDelta, "s"},
		"store.journal_hits":   {float64(sc.JournalHits), "count"},
		"store.journal_misses": {float64(sc.JournalMisses), "count"},
		"store.files_journal":  {float64(cc.FilesJournal), "count"},

		"collection.handshake_s":     {spanMed(obs.PhaseHandshake), "s"},
		"collection.round_s":         {spanMed(obs.PhaseRound), "s"},
		"collection.verify_s":        {spanMed(obs.PhaseVerify), "s"},
		"collection.delta_s":         {spanMed(obs.PhaseDelta), "s"},
		"collection.full_s":          {spanMed(obs.PhaseFull), "s"},
		"collection.handshake_bytes": {float64(cs.bytes[obs.PhaseHandshake]), "bytes"},
		"collection.files_synced":    {float64(cc.FilesSynced), "count"},
		"collection.files_unchanged": {float64(cc.FilesUnchanged), "count"},
		"collection.files_full":      {float64(cc.FilesFull), "count"},
		"collection.residual_s":      {tracedP50 - (coreTotal + md4S + walk + read + storeDelta), "s"},

		"wire.frames":          {float64(cs.frames), "count"},
		"wire.bytes_per_frame": {ratio(cs.total, int64(cs.frames)), "bytes"},

		"proc.alloc_mb":    {sessMed(plain, func(s *session) float64 { return float64(s.alloc) / 1e6 }), "MB"},
		"proc.gc_cycles":   {sessMed(plain, func(s *session) float64 { return float64(s.gcs) }), "count"},
		"trace.overhead_s": {tracedP50 - plainP50, "s"},

		"baseline.rsync_bytes":       {float64(rsyncBytes), "bytes"},
		"baseline.delta_bound_bytes": {float64(deltaBound), "bytes"},
	}
	shares := map[string]float64{}
	for _, k := range []string{"core.scan_s", "core.hash_s", "core.verify_s", "core.delta_encode_s", "core.delta_apply_s", "md4.s", "dirio.walk_s", "dirio.read_s", "store.delta_s", "collection.residual_s"} {
		shares[k] = m[k].Value / tracedP50
	}
	details := map[string]any{
		"workload": r.name, "untraced_sessions": len(plain), "traced_sessions": len(traced),
		"replays": len(samples), "engine_files": len(engine),
		"sync_s_p50_untraced": plainP50, "sync_s_p50_traced": tracedP50,
		"wire_bytes": first.wireBytes(), "costs_gap_bytes": first.costsGap(), "layer_share_of_traced_p50": shares,
	}
	return m, details, nil
}

// hashedFiles lists the replica files a session's client manifest runs
// through MD4: all of them for a map-backed client, which fingerprints its
// collection every session; for a directory client, as many (in path order)
// as its signature-cache misses hashed, which the session reports in Costs.
func (r *runner) hashedFiles(cc *msync.Costs) [][]byte {
	var out [][]byte
	left := cc.BytesHashed
	for _, p := range sortedKeys(r.fx.base) {
		if !r.fx.mapBacked() && left <= 0 {
			break
		}
		out = append(out, r.fx.base[p])
		left -= int64(len(r.fx.base[p]))
	}
	return out
}

// rate is n bytes over secs as MB/s, 0 when nothing was timed.
func rate(n int64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs / 1e6
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
