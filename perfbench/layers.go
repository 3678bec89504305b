package main

import (
	"bytes"
	"fmt"
	"time"

	"msync"
	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/dirio"
	"msync/internal/md4"
	"msync/internal/obs"
	"msync/internal/rsync"
	"msync/internal/stats"
	"msync/internal/store"
)

// spans sums one side's trace events of a session by phase.
type spans struct {
	dur    map[string]float64 // seconds per phase
	bytes  map[string]int64   // wire bytes (both ways) per phase
	frames int                // frames of the whole session
	total  int64              // wire bytes of the whole session
}

func sumSpans(events []msync.TraceEvent, side string) spans {
	s := spans{dur: map[string]float64{}, bytes: map[string]int64{}}
	for _, e := range events {
		if e.Side != side {
			continue
		}
		if e.Phase == obs.PhaseSession {
			s.frames += e.Frames
			s.total += e.BytesUp + e.BytesDown
			continue
		}
		s.dur[e.Phase] += e.Dur.Seconds()
		s.bytes[e.Phase] += e.BytesUp + e.BytesDown
	}
	return s
}

// coreReplay is the per-layer split of the sync engine over a session's
// changed files, driven call by call the way core.SyncLocal drives it.
type coreReplay struct {
	hash, scan, verify, encode, apply float64 // seconds
	basisBytes                        int64   // old-file bytes the client maps
	rounds                            int     // map rounds of the slowest file
	candidates, confirmed, fallbacks  int64
	mapBytes, deltaBytes              int64
}

func (c *coreReplay) total() float64 { return c.hash + c.scan + c.verify + c.encode + c.apply }

func replayCore(pairs []pair, cfg core.Config) (*coreReplay, error) {
	r := &coreReplay{}
	for _, p := range pairs {
		if err := r.file(p, &cfg); err != nil {
			return nil, fmt.Errorf("core replay of %s: %w", p.path, err)
		}
	}
	return r, nil
}

// file replays one pair: server block hashing (NewServerFile, EmitHashes),
// the client's rolling scan and search (NewClientFile, AbsorbHashes),
// verification exchanges (reply, confirm, batch), delta encode and apply.
func (r *coreReplay) file(p pair, cfg *core.Config) error {
	var costs stats.Costs
	lap := func(acc *float64, t0 time.Time) { *acc += time.Since(t0).Seconds() }

	t := time.Now()
	srv, err := core.NewServerFile(p.cur, cfg)
	if err != nil {
		return err
	}
	lap(&r.hash, t)
	t = time.Now()
	cli, err := core.NewClientFile(p.old, len(p.cur), cfg)
	if err != nil {
		return err
	}
	lap(&r.scan, t)
	r.basisBytes += int64(len(p.old))
	rounds := 0
	for srv.Active() {
		if !cli.Active() {
			return fmt.Errorf("engine desync")
		}
		rounds++
		t = time.Now()
		hashes := srv.EmitHashes()
		lap(&r.hash, t)
		costs.Add(stats.S2C, stats.PhaseMap, len(hashes))
		t = time.Now()
		err := cli.AbsorbHashes(hashes)
		lap(&r.scan, t)
		if err != nil {
			return err
		}
		t = time.Now()
		reply := cli.EmitReply()
		more, err := srv.AbsorbReply(reply)
		costs.Add(stats.C2S, stats.PhaseMap, len(reply))
		for err == nil && more {
			confirm := srv.EmitConfirm()
			costs.Add(stats.S2C, stats.PhaseMap, len(confirm))
			if _, err = cli.AbsorbConfirm(confirm); err != nil {
				break
			}
			batch := cli.EmitBatch()
			costs.Add(stats.C2S, stats.PhaseMap, len(batch))
			more, err = srv.AbsorbBatch(batch)
		}
		lap(&r.verify, t)
		if err != nil {
			return err
		}
	}
	t = time.Now()
	dl := srv.EmitDelta()
	lap(&r.encode, t)
	costs.Add(stats.S2C, stats.PhaseDelta, len(dl))
	t = time.Now()
	out, err := cli.ApplyDelta(dl)
	if err == core.ErrVerifyFailed {
		r.fallbacks++
		out, err = delta.Decompress(delta.Compress(p.cur))
	}
	lap(&r.apply, t)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, p.cur) {
		return fmt.Errorf("reconstruction differs from the current file")
	}
	r.rounds = max(r.rounds, rounds)
	r.candidates += srv.CandidatesSeen
	r.confirmed += srv.MatchesConfirmed
	r.mapBytes += costs.PhaseTotal(stats.PhaseMap)
	r.deltaBytes += costs.PhaseTotal(stats.PhaseDelta)
	return nil
}

// replayMD4 hashes files with md4.Sum and returns bytes and seconds.
func replayMD4(files [][]byte) (int64, float64) {
	var n int64
	t := time.Now()
	for _, f := range files {
		md4.Sum(f)
		n += int64(len(f))
	}
	return n, time.Since(t).Seconds()
}

// dirioReplay times the directory layer on the replica: the walk
// (dirio.OpenTree) and reading every file (Tree.Load).
type dirioReplay struct {
	files      int
	walk, read float64
	bytes      int64
}

func replayDirio(root string) (*dirioReplay, error) {
	t := time.Now()
	tree, werrs, err := dirio.OpenTree(root)
	if err == nil && len(werrs) > 0 {
		err = werrs
	}
	if err != nil {
		return nil, err
	}
	r := &dirioReplay{walk: time.Since(t).Seconds(), files: len(tree.Files())}
	t = time.Now()
	for _, fi := range tree.Files() {
		data, err := tree.Load(fi.Path)
		if err != nil {
			return nil, err
		}
		r.bytes += int64(len(data))
	}
	r.read = time.Since(t).Seconds()
	return r, nil
}

// replayStore times the store calls of the journal path: opening the store
// and computing the journal delta from the client's version to the latest.
func replayStore(dir string, base uint64, baseDigest, curDigest [md4.Size]byte) (open, deltaS float64, err error) {
	t := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	open = time.Since(t).Seconds()
	t = time.Now()
	_, ok := st.Delta(base, baseDigest, curDigest)
	deltaS = time.Since(t).Seconds()
	if !ok {
		return 0, 0, fmt.Errorf("store has no journal delta from version %d", base)
	}
	return open, deltaS, nil
}

// manifestDigest is the digest a store keeps for a collection version.
func manifestDigest(m map[string][]byte) [md4.Size]byte {
	return collection.ManifestDigest(collection.BuildManifest(m))
}

// baselines are the paper's reference costs for a set of changed pairs:
// rsync at its default 700-byte blocks, and the delta compressor's size of
// the current file against the old one (the zdelta-class lower bound).
func baselines(pairs []pair) (rsyncBytes, deltaBound int64) {
	for _, p := range pairs {
		r := rsync.Sync(p.old, p.cur, rsync.DefaultBlockSize, rsync.DefaultStrongLen)
		rsyncBytes += int64(r.C2S + r.S2C)
		deltaBound += int64(delta.CompressedSize(p.old, p.cur))
	}
	return rsyncBytes, deltaBound
}
