package collection

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path"
	"sort"
	"sync"
	"time"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/md4"
	"msync/internal/merkle"
	"msync/internal/obs"
	"msync/internal/pool"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// ErrHandshake marks session failures that happened before any file content
// was exchanged (dialing aside: hello, change detection, verdicts). Such
// failures are safe to retry — neither side has committed to anything.
// Test with errors.Is.
var ErrHandshake = errors.New("collection: handshake failed")

// handshakeError wraps an error so errors.Is(err, ErrHandshake) holds while
// the underlying cause (deadline, EOF, ...) stays inspectable via Unwrap.
type handshakeError struct{ err error }

func (e *handshakeError) Error() string        { return "collection: handshake: " + e.err.Error() }
func (e *handshakeError) Unwrap() error        { return e.err }
func (e *handshakeError) Is(target error) bool { return target == ErrHandshake }

// asHandshake tags err as a handshake-phase failure (nil stays nil).
func asHandshake(err error) error {
	if err == nil {
		return nil
	}
	return &handshakeError{err: err}
}

// Client synchronizes a local collection copy against a Server.
type Client struct {
	src Source
	// LazyResult, for sources that can re-read their own files (TreeSource),
	// keeps unchanged files out of Result.Files: the result then holds only
	// written content, with unchanged and deleted paths listed by name, so
	// peak memory scales with the change set instead of the collection.
	LazyResult bool
	// TreeManifest switches change detection from the flat fingerprint
	// manifest to merkle-tree reconciliation, which costs O(changed·log n)
	// instead of O(n) — the right choice when almost nothing changed.
	TreeManifest bool
	// SpeculativeDescent requests (hello extension 3) that tree-mode
	// descent answers carry several levels of digests at once, finishing
	// a typical descent in roughly half the roundtrips. Ignored by
	// servers that don't support it; the session then runs the legacy
	// one-level descent byte-identically.
	SpeculativeDescent bool
	// CrossFileMatch requests (hello extension 3) cross-file matching in
	// tree mode: files the server has under a new path are first matched
	// against the whole local collection by content fingerprint (a pure
	// rename then costs zero content bytes — the client copies its local
	// file), and unmatched new files may be synced against an alternate
	// local basis named in the WANT exchange instead of transferred in
	// full.
	CrossFileMatch bool
	// trees carries the client's built merkle trees across sessions (and,
	// when the source has a signature-cache directory, across processes),
	// so a repeat tree-mode sync updates its tree incrementally from the
	// manifest diff instead of rebuilding O(n) nodes.
	trees treeState
	// RoundTimeout, if positive, bounds each frame-level read/write of a
	// session (and therefore each protocol round), so a stalled server
	// fails the session instead of hanging it. Requires a connection with
	// deadline support (net.Conn, transport.PipeEnd) to interrupt blocked
	// I/O.
	RoundTimeout time.Duration
	// Workers bounds the client's local parallelism: per-file engine
	// fan-out plus the engines' internal sharded scans and batched
	// verification hashing. 0 means runtime.GOMAXPROCS(0); 1 is fully
	// serial. Purely an execution knob — the wire output is bit-identical
	// for every value.
	Workers int
	// AnnounceVersion adds the optional version extension to the hello:
	// the client announces BaseVersion (0 = none known) and a versioned
	// server may answer with a precomputed journal delta instead of map
	// construction. Servers without a store ignore the extension; the
	// session is unchanged beyond the few extension bytes. The server's
	// current version is reported back in Result.Version.
	AnnounceVersion bool
	// BaseVersion is the stored version this client's collection matches,
	// as learned from a previous Result.Version.
	BaseVersion uint64
	// MuxStreams, if positive, requests stream multiplexing (hello
	// extension 2) with up to that many concurrent streams: the server
	// partitions the sync files into streams whose map rounds, deltas and
	// fallbacks interleave on the one connection, so slow files no longer
	// gate fast ones and tiny files share roundtrips. Servers that don't
	// multiplex (or sessions with nothing to sync) ignore the request and
	// the session runs the legacy lockstep protocol unchanged.
	MuxStreams int
	// MapMode requests a map-construction mode (hello extension 4):
	// core.MapCDC asks the server to derive block boundaries from
	// content-defined chunk cuts instead of recursive halving. The server
	// is authoritative — it grants the mode by echoing it in the session
	// config it ships with the verdicts, and servers that predate the
	// extension ignore it, so the session falls back to halving
	// byte-identically. The zero value never emits the extension.
	MapMode core.MapMode
	// Tracer, if set, receives span-like events per protocol phase; the
	// summed frame bytes of a session's spans equal its Costs wire totals.
	// Tracing never changes what goes on the wire.
	Tracer obs.Tracer
	// Logger, if set, receives structured session lifecycle logs. nil
	// disables logging entirely.
	Logger *slog.Logger
}

// NewClient creates a client over the local (path → content) collection.
func NewClient(files map[string][]byte) *Client {
	return &Client{src: MapSource(files)}
}

// NewClientSource creates a client over an arbitrary collection source.
func NewClientSource(src Source) *Client {
	return &Client{src: src}
}

// clientFile pairs a path with its per-file client engine. For cross-file
// matched files, tryout holds candidate engines over alternate local bases;
// the first map round picks the best-matching one (core.PickBasis) and it
// becomes the engine.
type clientFile struct {
	path   string
	engine *core.ClientFile
	tryout []*core.ClientFile
}

// Result is the outcome of one synchronization session.
type Result struct {
	// Files is the updated collection. Under Client.LazyResult it holds only
	// the files the session wrote (synced, full, new); combined with
	// Unchanged and Deleted it still describes the complete outcome.
	Files map[string][]byte
	// Unchanged lists paths the session left untouched.
	Unchanged []string
	// Deleted lists local paths the server no longer has.
	Deleted []string
	// Costs is the session's cost accounting from the client's perspective.
	Costs *stats.Costs
	// PerFile attributes payload bytes to individual synchronized files
	// (map-construction sections, deltas and full transfers; shared framing
	// and control traffic are not attributed).
	PerFile map[string]int64
	// Version is the server's current store version, reported when the
	// client announced one (Client.AnnounceVersion) and the server is
	// versioned; 0 otherwise. Announce it as BaseVersion on the next sync
	// of the updated collection to receive a journal delta.
	Version uint64
}

// SyncContext runs one session over conn under ctx and returns the updated
// collection: cancellation or a context deadline aborts the session at the
// next frame boundary (and interrupts blocked I/O when conn supports
// deadlines), and RoundTimeout bounds every individual round.
func (c *Client) SyncContext(ctx context.Context, conn io.ReadWriter) (*Result, error) {
	sess := transport.NewSession(ctx, conn, c.RoundTimeout)
	defer sess.Release()
	costs := &stats.Costs{}
	fr := wire.GetFrameReader(sess)
	defer wire.PutFrameReader(fr)
	fw := wire.GetFrameWriter(sess)
	defer wire.PutFrameWriter(fw)
	acct := beginAccounting(c.src)
	defer acct.finish(costs)
	st := newSessTrace(c.Tracer, c.Logger, "client")

	res, err := func() (*Result, error) {
		// HELLO.
		hb := wire.NewBuffer(8)
		hb.Uvarint(protocolVersion)
		hb.Byte(rolePull)
		if c.TreeManifest {
			hb.Byte(modeTree)
		} else {
			hb.Byte(modeManifest)
		}
		var treeCaps byte
		if c.TreeManifest {
			if c.SpeculativeDescent {
				treeCaps |= treeCapSpec
			}
			if c.CrossFileMatch {
				treeCaps |= treeCapCross
			}
		}
		// Hello extensions as (id, value) pairs in id order; each value
		// travels as one uvarint.
		var exts [][2]uint64
		if c.AnnounceVersion {
			exts = append(exts, [2]uint64{helloExtVersion, c.BaseVersion})
		}
		if c.MuxStreams > 0 {
			exts = append(exts, [2]uint64{helloExtMux, uint64(c.MuxStreams)})
		}
		if treeCaps != 0 {
			exts = append(exts, [2]uint64{helloExtTree, uint64(treeCaps)})
		}
		if c.MapMode != core.MapHalving {
			exts = append(exts, [2]uint64{helloExtMapMode, uint64(c.MapMode)})
		}
		if len(exts) > 0 {
			hb.Uvarint(uint64(len(exts)))
			for _, e := range exts {
				hb.Uvarint(e[0])
				hb.Bytes(wire.AppendUvarint(nil, e[1]))
			}
		}
		if err := fw.WriteFrame(wire.FrameHello, hb.Build()); err != nil {
			return nil, asHandshake(err)
		}
		st.cost(costs, stats.C2S, stats.PhaseControl, hb.Len())
		return consume(ctx, fr, fw, costs, c.src, c.LazyResult, c.TreeManifest, c.AnnounceVersion, c.Workers, c.MuxStreams, treeCaps, &c.trees, st)
	}()
	st.end(costs, err, fr, fw, sess.Stats())
	return res, err
}

// consume runs the receiving role of a session (after any handshake
// header): announce local state, answer map-construction rounds, apply
// deltas. It is shared by the pulling client and by a server accepting a
// push. In the returned Costs, C2S is traffic from the data receiver to the
// data holder. Failures up to and including the verdict exchange are tagged
// with ErrHandshake (retry-safe); ctx is checked at every round boundary.
// workers is the receiver's own parallelism budget — never the remote's: the
// protocol config arrives over the wire, but Workers is deliberately not
// serialized, so each side applies its local setting.
//
// With lazy set (sources that can re-read their own files), unchanged
// content is never materialized: the result lists unchanged and deleted
// paths by name and Files holds only what the session wrote.
//
// announced reports whether this side's hello carried the version
// extension: only then are journal verdicts and the trailing version in the
// verdict frame expected. muxWidth is the requested stream width (0: none);
// only when positive is a MUX_ACK before the verdicts accepted, framing the
// per-file phases as multiplexed streams.
//
// treeCaps is the tree-extension capability mask this side's hello asked
// for (0: none — legacy bytes throughout) and trees the cross-session tree
// cache; both only matter under treeManifest.
func consume(ctx context.Context, fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, src Source, lazy, treeManifest, announced bool, workers, muxWidth int, treeCaps byte, trees *treeState, st *sessTrace) (*Result, error) {
	sbuf := wire.GetBuffer(1024) // session scratch for every frame we assemble
	defer wire.PutBuffer(sbuf)

	manifest, err := src.Manifest()
	if err != nil {
		return nil, asHandshake(err)
	}

	// Change detection: determine the paths under discussion (in verdict
	// order) and the initial contents of the result set.
	res := &Result{Costs: costs}
	out := make(map[string][]byte)
	res.Files = out
	tr := &treeResult{}
	if treeManifest {
		tr, err = treeDetect(fr, fw, costs, manifest, treeCaps, trees, treeDir(src), st)
		if err != nil {
			return nil, asHandshake(err)
		}
		res.Deleted = tr.deleted
		handled := make(map[string]bool, len(tr.verdictPaths)+len(tr.localCopy))
		for _, p := range tr.verdictPaths {
			handled[p] = true
		}
		for p := range tr.localCopy {
			handled[p] = true
		}
		for _, p := range tr.kept {
			if handled[p] {
				continue // changed: decided by its verdict or local copy below
			}
			if lazy {
				res.Unchanged = append(res.Unchanged, p)
				continue
			}
			data, err := src.Load(p)
			if err != nil {
				return nil, asHandshake(err)
			}
			out[p] = data
		}
		// Cross-file renames: wanted content that already exists locally
		// under another path is copied, not transferred — zero wire bytes.
		if len(tr.localCopy) > 0 {
			paths := make([]string, 0, len(tr.localCopy))
			for p := range tr.localCopy {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			for _, p := range paths {
				data, err := src.Load(tr.localCopy[p])
				if err != nil {
					return nil, asHandshake(err)
				}
				out[p] = data
				costs.FilesRenamed++
				costs.RenameBytesSaved += int64(len(data))
			}
		}
	} else {
		sbuf.Reset()
		encodeManifestInto(sbuf, manifest)
		if err := fw.WriteFrame(wire.FrameManifest, sbuf.Build()); err != nil {
			return nil, asHandshake(err)
		}
		st.cost(costs, stats.C2S, stats.PhaseControl, sbuf.Len())
		for _, e := range manifest {
			tr.verdictPaths = append(tr.verdictPaths, e.Path)
		}
	}
	if err := fw.Flush(); err != nil {
		return nil, asHandshake(err)
	}

	// Verdicts, optionally preceded by a MUX_ACK when we requested
	// multiplexing and the server granted it.
	var muxRaw, vraw []byte
	if muxWidth > 0 {
		muxRaw, vraw, err = fr.ExpectFrameAfter(wire.FrameMuxAck, wire.FrameVerdicts)
	} else {
		vraw, err = fr.ExpectFrame(wire.FrameVerdicts)
	}
	if err != nil {
		return nil, asHandshake(err)
	}
	if muxRaw != nil {
		st.cost(costs, stats.S2C, stats.PhaseControl, len(muxRaw))
	}
	costs.Roundtrips++
	engines, journal, err := readVerdicts(vraw, tr, src, lazy, announced && !treeManifest, workers, res, st)
	if err != nil {
		return nil, err
	}

	counts := []int{len(engines)} // lockstep: one bare stream over every engine
	if muxRaw != nil {
		if len(engines) == 0 || journal != nil {
			// The server only grants multiplexing to sessions running sync
			// engines; anything else is a protocol violation.
			return nil, fmt.Errorf("collection: unexpected mux ack")
		}
		if counts, err = wire.ParseMuxAck(muxRaw, len(engines)); err != nil {
			return nil, err
		}
	}
	perEngine := make([]int64, len(engines))
	streams := newClientStreams(engines, counts, perEngine)
	if journal != nil {
		streams = []*clientStream{journal}
	}
	if err := consumeStreams(ctx, fr, fw, costs, streams, muxRaw != nil, workers, out, st); err != nil {
		return nil, err
	}
	res.PerFile = make(map[string]int64, len(perEngine))
	for _, cs := range streams {
		for i, p := range cs.paths {
			res.PerFile[p] = cs.perEngine[i]
		}
	}
	for i := range engines {
		costs.CDCChunks += engines[i].engine.CDCChunks
	}
	return res, nil
}

// readVerdicts applies a VERDICTS frame for the paths change detection put
// under discussion (tr.verdictPaths, with tr.altBases' cross-file basis
// candidates): unchanged, deleted, full and journal-delta files land in res
// directly, and the returned engines carry the files left to sync. A journal
// hit runs no engines; its files come back as the zero-engine stream whose
// ACK ordinals index them, with the ordinals whose delta did not apply
// already marked failed. versioned expects the server's version trailer.
func readVerdicts(vraw []byte, tr *treeResult, src Source, lazy, versioned bool, workers int, res *Result, st *sessTrace) ([]clientFile, *clientStream, error) {
	costs, out := res.Costs, res.Files
	vp := wire.NewParser(vraw)
	cfgRaw, err := vp.Bytes()
	if err != nil {
		return nil, nil, err
	}
	cfg, err := decodeConfig(cfgRaw)
	if err != nil {
		return nil, nil, err
	}
	cfg.Workers = workers
	st.setMode(cfg.MapMode)
	nv, err := vp.Uvarint()
	if err != nil || int(nv) != len(tr.verdictPaths) {
		return nil, nil, fmt.Errorf("collection: verdict count mismatch")
	}

	var engines []clientFile
	journal := &clientStream{buf: wire.NewBuffer(64)} // verdictJournal files, in verdict order
	fullBytes := 0
	deltaBytes := 0
	for _, path := range tr.verdictPaths {
		verdict, err := vp.Byte()
		if err != nil {
			return nil, nil, err
		}
		switch verdict {
		case verdictUnchanged:
			if lazy {
				res.Unchanged = append(res.Unchanged, path)
			} else {
				data, err := src.Load(path)
				if err != nil {
					return nil, nil, err
				}
				out[path] = data
			}
			costs.FilesUnchanged++
		case verdictDelete:
			delete(out, path)
			res.Deleted = append(res.Deleted, path)
		case verdictFull:
			comp, err := vp.Bytes()
			if err != nil {
				return nil, nil, err
			}
			fullBytes += len(comp)
			data, err := delta.Decompress(comp)
			if err != nil {
				return nil, nil, fmt.Errorf("collection: full file %q: %w", path, err)
			}
			out[path] = data
			costs.FilesFull++
		case verdictSync:
			newLen, err := vp.Uvarint()
			if err != nil {
				return nil, nil, err
			}
			if alts := tr.altBases[path]; len(alts) > 0 {
				// Cross-file near-match: build one candidate engine per
				// alternate local basis; the first map round picks the
				// best (see respond / core.PickBasis).
				cf := clientFile{path: path}
				for _, ap := range alts {
					old, err := src.Load(ap)
					if err != nil {
						continue // basis vanished: try the rest
					}
					eng, err := core.NewClientFile(old, int(newLen), &cfg)
					if err != nil {
						return nil, nil, err
					}
					cf.tryout = append(cf.tryout, eng)
				}
				if len(cf.tryout) == 0 {
					eng, err := core.NewClientFile(nil, int(newLen), &cfg)
					if err != nil {
						return nil, nil, err
					}
					cf.tryout = append(cf.tryout, eng)
				}
				cf.engine = cf.tryout[0]
				engines = append(engines, cf)
				costs.FilesSynced++
				costs.FilesRebased++
				continue
			}
			old, err := src.Load(path)
			if err != nil {
				return nil, nil, err
			}
			eng, err := core.NewClientFile(old, int(newLen), &cfg)
			if err != nil {
				return nil, nil, err
			}
			engines = append(engines, clientFile{path: path, engine: eng})
			costs.FilesSynced++
			if cfg.MapMode == core.MapCDC {
				costs.FilesCDC++
			}
		case verdictJournal:
			newLen, err := vp.Uvarint()
			if err != nil {
				return nil, nil, err
			}
			sumRaw, err := vp.Raw(md4.Size)
			if err != nil {
				return nil, nil, err
			}
			payload, err := vp.Bytes()
			if err != nil {
				return nil, nil, err
			}
			var sum [md4.Size]byte
			copy(sum[:], sumRaw)
			deltaBytes += len(payload)
			// Apply the precomputed delta against the local copy; any
			// failure (missing file, corrupt payload, content drift) lands
			// on the ack list for a whole-file fallback, exactly like a
			// failed engine verification.
			applied := false
			if old, err := src.Load(path); err == nil {
				if data, err := delta.Decode(old, payload); err == nil &&
					len(data) == int(newLen) && md4.Sum(data) == sum {
					out[path] = data
					applied = true
				}
			}
			if !applied {
				journal.verifyFailed = append(journal.verifyFailed, len(journal.paths))
			}
			journal.paths = append(journal.paths, path)
			journal.perEngine = append(journal.perEngine, int64(len(payload)))
			costs.FilesJournal++
		default:
			return nil, nil, fmt.Errorf("collection: unknown verdict %d", verdict)
		}
	}
	if len(journal.paths) == 0 {
		journal = nil
	} else if len(engines) > 0 {
		// Journal sessions never run engines; a server mixing the two would
		// make ack indexes ambiguous.
		return nil, nil, fmt.Errorf("collection: mixed journal and sync verdicts")
	}
	nNew, err := vp.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	for k := uint64(0); k < nNew; k++ {
		path, err := vp.String()
		if err != nil {
			return nil, nil, err
		}
		comp, err := vp.Bytes()
		if err != nil {
			return nil, nil, err
		}
		fullBytes += len(comp)
		data, err := delta.Decompress(comp)
		if err != nil {
			return nil, nil, fmt.Errorf("collection: new file %q: %w", path, err)
		}
		out[path] = data
		costs.FilesFull++
	}
	if versioned && vp.Remaining() > 0 {
		// Versioned servers append their current version for announcing
		// clients; its absence just means the server has no store.
		if v, err := vp.Uvarint(); err == nil {
			res.Version = v
		}
	}
	st.verdicts(costs, len(vraw), fullBytes, deltaBytes)
	return engines, journal, nil
}

// treeState carries a client's merkle tree cache across sessions, so a
// repeat sync rebases the built tree from the manifest diff (O(changed ·
// depth) hashing) instead of rebuilding it.
type treeState struct {
	mu    sync.Mutex
	cache *merkle.TreeCache
}

// acquire returns the tree cache for the given manifest state, reusing or
// rebasing the previous sessions' trees when possible. A nil receiver (the
// push path, which has no cross-session home) builds a fresh cache.
func (ts *treeState) acquire(entries []merkle.Entry, fp [md4.Size]byte, dir string) *merkle.TreeCache {
	if ts == nil {
		return merkle.NewTreeCacheAt(entries, fp, dir)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	switch {
	case ts.cache != nil && ts.cache.Fingerprint() == fp:
		// Same collection state as last session: reuse as-is.
	case ts.cache != nil:
		ts.cache = ts.cache.Rebase(entries, fp)
	default:
		ts.cache = merkle.NewTreeCacheAt(entries, fp, dir)
	}
	return ts.cache
}

// treeDir returns the directory where merkle trees may persist for src: the
// signature cache's disk directory, when there is one. "" disables
// persistence (trees then live only as long as the Client).
func treeDir(src Source) string {
	if cb, ok := src.(cacheBacked); ok {
		if c := cb.Cache(); c != nil {
			return c.Dir()
		}
	}
	return ""
}

// treeResult is what change detection hands back to consume (flat-manifest
// mode fills only verdictPaths).
type treeResult struct {
	verdictPaths []string // paths the server will answer with verdicts, in order
	kept         []string // local paths the server still has (incl. changed)
	deleted      []string // local paths the server no longer has
	// localCopy maps a wanted path to an identical-content local path
	// (cross-file rename match): materialized locally, never transferred.
	localCopy map[string]string
	// altBases maps a wanted path to alternate local basis candidates for
	// its sync engine (cross-file near-match), best-first.
	altBases map[string][]string
}

// maxAltBases bounds how many alternate local bases a client tries per
// wanted file; each candidate costs one engine's worth of memory and one
// first-round scan.
const maxAltBases = 3

// altBasisCandidates proposes alternate local bases for files that exist
// only on the server: orphaned local paths (paths the server no longer has
// — the likely sources of a rename) with matching basenames first, then
// the remaining orphans in path order. Deterministic by construction.
func altBasisCandidates(wanted []merkle.Entry, orphans []string) map[string][]string {
	if len(orphans) == 0 {
		return nil
	}
	sorted := append([]string(nil), orphans...)
	sort.Strings(sorted)
	byBase := make(map[string][]string, len(sorted))
	for _, p := range sorted {
		b := path.Base(p)
		byBase[b] = append(byBase[b], p)
	}
	out := make(map[string][]string, len(wanted))
	for _, e := range wanted {
		cands := make([]string, 0, maxAltBases)
		seen := make(map[string]bool, maxAltBases)
		for _, p := range byBase[path.Base(e.Path)] {
			if len(cands) == maxAltBases {
				break
			}
			cands = append(cands, p)
			seen[p] = true
		}
		for _, p := range sorted {
			if len(cands) == maxAltBases {
				break
			}
			if !seen[p] {
				cands = append(cands, p)
			}
		}
		out[e.Path] = cands
	}
	return out
}

// treeDetect runs merkle reconciliation against the server and asks for the
// differing files. caps is the capability mask this side's hello requested
// (treeCapSpec/treeCapCross); the server's TREE_ACK — sent only when it
// grants something — arrives before its first TREE reply. With caps == 0
// the exchange is byte-identical to the legacy descent.
func treeDetect(fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, manifest []ManifestEntry, caps byte, trees *treeState, dir string, st *sessTrace) (*treeResult, error) {
	entries := make([]merkle.Entry, len(manifest))
	for i, e := range manifest {
		entries[i] = merkle.Entry{Path: e.Path, Len: e.Len, Sum: e.Sum}
	}
	tc := trees.acquire(entries, ManifestDigest(manifest), dir)
	ini := merkle.NewInitiator(tc.Tree(merkle.DepthFor(len(entries))))
	var granted byte
	first := true
	round := 0
	for !ini.Done() {
		round++
		st.begin(obs.PhaseTree, round)
		msg := ini.Next()
		if err := fw.WriteFrame(wire.FrameTree, msg); err != nil {
			return nil, err
		}
		if err := fw.Flush(); err != nil {
			return nil, err
		}
		st.cost(costs, stats.C2S, stats.PhaseControl, len(msg))
		var ack, payload []byte
		var err error
		if first && caps != 0 {
			// The server may grant extensions with a TREE_ACK before its
			// first TREE reply (same flush: no extra roundtrip).
			ack, payload, err = fr.ExpectFrameAfter(wire.FrameTreeAck, wire.FrameTree)
		} else {
			payload, err = fr.ExpectFrame(wire.FrameTree)
		}
		if err != nil {
			return nil, err
		}
		if ack != nil {
			st.cost(costs, stats.S2C, stats.PhaseControl, len(ack))
			g, err := wire.NewParser(ack).Uvarint()
			if err != nil {
				return nil, err
			}
			granted = byte(g) & caps
			ini.Speculative = granted&treeCapSpec != 0
		}
		first = false
		st.cost(costs, stats.S2C, stats.PhaseControl, len(payload))
		costs.Roundtrips++
		costs.TreeRounds++
		if err := ini.Absorb(payload); err != nil {
			return nil, err
		}
	}
	diff := ini.Diff()
	st.begin(obs.PhaseHandshake, 0)

	tr := &treeResult{deleted: diff.OnlyLocal}
	deleted := make(map[string]bool, len(diff.OnlyLocal))
	for _, p := range diff.OnlyLocal {
		deleted[p] = true
	}
	for _, e := range manifest {
		if !deleted[e.Path] {
			tr.kept = append(tr.kept, e.Path)
		}
	}
	costs.FilesUnchanged += len(manifest) - len(deleted) - len(diff.Changed)

	wantsChanged, wantsRemote := diff.Changed, diff.OnlyRemote
	if granted&treeCapCross != 0 {
		// Cross-file matching: wanted content that already exists locally
		// under some other path (same length and fingerprint) is a rename
		// — drop it from the WANT and copy locally. The rest of the
		// server-only files get alternate-basis hints.
		tr.localCopy = make(map[string]string)
		type ckey struct {
			len int
			sum [md4.Size]byte
		}
		byContent := make(map[ckey]string, len(manifest))
		for i := len(manifest) - 1; i >= 0; i-- {
			// Reverse iteration so the lowest path wins for duplicates.
			e := manifest[i]
			byContent[ckey{e.Len, e.Sum}] = e.Path
		}
		filter := func(es []merkle.Entry) []merkle.Entry {
			out := make([]merkle.Entry, 0, len(es))
			for _, e := range es {
				if p, ok := byContent[ckey{e.Len, e.Sum}]; ok {
					tr.localCopy[e.Path] = p
					continue
				}
				out = append(out, e)
			}
			return out
		}
		wantsChanged = filter(wantsChanged)
		wantsRemote = filter(wantsRemote)
		tr.altBases = altBasisCandidates(wantsRemote, diff.OnlyLocal)
	}

	type wantEntry struct {
		path string
		have byte
	}
	wants := make([]wantEntry, 0, len(wantsChanged)+len(wantsRemote))
	for _, e := range wantsChanged {
		wants = append(wants, wantEntry{e.Path, wantHave})
	}
	for _, e := range wantsRemote {
		h := wantAbsent
		if _, ok := tr.altBases[e.Path]; ok {
			h = wantAltBasis
		}
		wants = append(wants, wantEntry{e.Path, h})
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].path < wants[j].path })

	wb := wire.NewBuffer(64)
	wb.Uvarint(uint64(len(wants)))
	for _, w := range wants {
		wb.String(w.path)
		wb.Byte(w.have)
		tr.verdictPaths = append(tr.verdictPaths, w.path)
	}
	if err := fw.WriteFrame(wire.FrameWant, wb.Build()); err != nil {
		return nil, err
	}
	st.cost(costs, stats.C2S, stats.PhaseControl, wb.Len())
	return tr, nil
}

// respond handles one round-hashes or confirm frame and builds the reply
// into rb (the session's pooled scratch buffer — the returned bytes are only
// valid until rb's next reset). Engine work fans out across workers; replies
// are gathered into index-addressed slots and written in job order, so the
// reply frame is byte-identical for every worker count.
func respond(workers int, engines []clientFile, frameType byte, payload []byte, perEngine []int64, rb *wire.Buffer) ([]byte, error) {
	jobs, err := parseIndexed(payload, len(engines))
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		perEngine[j.idx] += int64(len(j.section))
	}
	replies := make([][]byte, len(jobs)) // nil = no reply for this file
	err = pool.Do(workers, len(jobs), func(k int) error {
		cf := &engines[jobs[k].idx]
		eng := cf.engine
		if frameType == wire.FrameRoundHashes {
			if len(cf.tryout) > 0 {
				// Alternate-basis candidates race on the first hash round;
				// the best-matching one becomes the engine for good.
				eng, err := core.PickBasis(cf.tryout, jobs[k].section)
				if err != nil {
					return fmt.Errorf("collection: file %q: %w", cf.path, err)
				}
				cf.engine, cf.tryout = eng, nil
				replies[k] = eng.EmitReply()
				return nil
			}
			if err := eng.AbsorbHashes(jobs[k].section); err != nil {
				return fmt.Errorf("collection: file %q: %w", cf.path, err)
			}
			replies[k] = eng.EmitReply()
			return nil
		}
		more, err := eng.AbsorbConfirm(jobs[k].section)
		if err != nil {
			return fmt.Errorf("collection: file %q: %w", engines[jobs[k].idx].path, err)
		}
		if more {
			replies[k] = eng.EmitBatch()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	count := 0
	for _, r := range replies {
		if r != nil {
			count++
		}
	}
	rb.Reset()
	rb.Uvarint(uint64(count))
	for k, r := range replies {
		if r != nil {
			rb.Uvarint(uint64(jobs[k].idx))
			rb.Bytes(r)
			perEngine[jobs[k].idx] += int64(len(r))
		}
	}
	return rb.Build(), nil
}

// VerifyAgainst checks that result holds exactly the files of want, byte for
// byte; the convergence check of tests and the benchmark harness.
func VerifyAgainst(result, want map[string][]byte) error {
	if len(result) != len(want) {
		return fmt.Errorf("collection: file count %d, want %d", len(result), len(want))
	}
	for path, data := range want {
		got, ok := result[path]
		if !ok {
			return fmt.Errorf("collection: missing %q", path)
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("collection: content mismatch for %q", path)
		}
	}
	return nil
}
