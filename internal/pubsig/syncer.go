package pubsig

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"msync/internal/collection"
	"msync/internal/dirio"
	"msync/internal/md4"
	"msync/internal/obs"
)

// Syncer reconciles a local directory tree against a published artifact
// server (Server or any static host of the same layout). All matching work
// runs on the reader: the origin only serves immutable bytes, so a million
// Syncers cost it nothing but bandwidth — and behind a CDN, not even that.
//
// A Syncer announcing a BaseVersion first asks /since/<base> for the
// composed manifest delta and touches only the files that changed; any miss
// (unknown base, pruned chain) falls back to the full manifest, so the
// delta path is an optimization, never a correctness dependency.
type Syncer struct {
	// Client is the HTTP client to use (nil = http.DefaultClient).
	Client *http.Client
	// BaseURL is the artifact server root, e.g. "http://mirror:8080".
	BaseURL string
	// BaseVersion, when nonzero, is the published version this tree is
	// believed to hold; it rides the /since delta path. Readers learn it
	// from the previous SyncResult.Version.
	BaseVersion uint64
	// DryRun plans and fetches nothing beyond metadata: it reports which
	// files would change without writing or downloading content.
	DryRun bool
	// Metrics, when set, counts requests, bytes by artifact kind, and
	// per-file outcomes.
	Metrics *obs.Registry
	// Tracer, when set, receives one PhaseFetch span per reconciled file
	// and one PhaseSession span for the whole sync.
	Tracer obs.Tracer
}

// SyncResult reports what one Sync did.
type SyncResult struct {
	// Version is the published version the tree now matches; announce it
	// as BaseVersion next time.
	Version uint64 `json:"version"`
	// DeltaPath reports whether the /since fast path served this sync.
	DeltaPath bool `json:"delta_path"`
	// FilesTotal is the number of files in the target version (full path)
	// or mentioned by the delta (delta path).
	FilesTotal int `json:"files_total"`
	// FilesUnchanged were locally verified as already current.
	FilesUnchanged int `json:"files_unchanged"`
	// FilesSynced were updated through signature + range fetches.
	FilesSynced int `json:"files_synced"`
	// FilesFull were fetched whole (no local basis, or verify fallback).
	FilesFull int `json:"files_full"`
	// FilesDeleted were removed locally.
	FilesDeleted int `json:"files_deleted"`
	// RangesFetched counts HTTP range requests issued.
	RangesFetched int `json:"ranges_fetched"`
	// BytesDown is the total HTTP body bytes downloaded, the sum of the
	// per-kind counts below.
	BytesDown     int64 `json:"bytes_down"`
	ManifestBytes int64 `json:"manifest_bytes"` // /latest + manifest or delta
	SigBytes      int64 `json:"sig_bytes"`
	RangeBytes    int64 `json:"range_bytes"`
	BlobBytes     int64 `json:"blob_bytes"`
	// BytesReusedLocal counts new-file bytes materialized from local
	// blocks instead of the network.
	BytesReusedLocal int64 `json:"bytes_reused_local"`
	// BytesHashedLocal counts local hashing work (the reader's share of
	// the matching the origin no longer does).
	BytesHashedLocal int64 `json:"bytes_hashed_local"`
}

func (s *Syncer) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return http.DefaultClient
}

func (s *Syncer) count(name string, n int64) {
	if s.Metrics != nil && n != 0 {
		s.Metrics.Counter(name).Add(n)
	}
}

// get fetches one URL path, returning the body. A nil error means status
// 200; http.StatusNoContent and 404 surface as typed sentinel errors so
// callers can branch without string matching.
var (
	errUpToDate = errors.New("pubsig: up to date")
	errNotFound = errors.New("pubsig: not found")
)

func (s *Syncer) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(s.BaseURL, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s.count("pubsig_fetch_requests", 1)
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("pubsig: reading %s: %w", path, err)
		}
		s.count("pubsig_fetch_bytes", int64(len(data)))
		return data, nil
	case http.StatusNoContent:
		return nil, errUpToDate
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", errNotFound, path)
	default:
		return nil, fmt.Errorf("pubsig: GET %s: %s", path, resp.Status)
	}
}

// Sync brings root up to the latest published version.
func (s *Syncer) Sync(ctx context.Context, root string) (*SyncResult, error) {
	start := time.Now()
	res, err := s.sync(ctx, root)
	if s.Tracer != nil {
		ev := obs.Event{
			Time:    time.Now(),
			Session: obs.NextSessionID(),
			Side:    "client",
			Phase:   obs.PhaseSession,
			Dur:     time.Since(start),
		}
		if err != nil {
			ev.Err = err.Error()
		} else {
			ev.BytesDown = res.BytesDown
		}
		s.Tracer.Emit(ev)
	}
	return res, err
}

func (s *Syncer) sync(ctx context.Context, root string) (*SyncResult, error) {
	res := &SyncResult{}
	latestRaw, err := s.get(ctx, "/latest")
	if err != nil {
		return nil, fmt.Errorf("pubsig: resolving latest version: %w", err)
	}
	res.ManifestBytes += int64(len(latestRaw))
	var latest struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(latestRaw, &latest); err != nil || latest.Version == 0 {
		return nil, fmt.Errorf("pubsig: bad /latest response")
	}
	res.Version = latest.Version

	tree, _, err := dirio.OpenTree(root)
	if err != nil {
		return nil, err
	}
	local := make(map[string]dirio.FileInfo, len(tree.Files()))
	for _, fi := range tree.Files() {
		local[fi.Path] = fi
	}

	// Work list: either the /since delta (announced base, server still
	// holds the chain) or the full manifest.
	var upserts []collection.ManifestEntry
	var deleted []string
	if s.BaseVersion > 0 && s.BaseVersion <= latest.Version {
		data, err := s.get(ctx, fmt.Sprintf("/since/%d", s.BaseVersion))
		switch {
		case errors.Is(err, errUpToDate):
			res.DeltaPath = true
			return res, nil
		case err == nil:
			d, perr := ParseDelta(data)
			if perr == nil && d.Base == s.BaseVersion {
				res.ManifestBytes += int64(len(data))
				res.DeltaPath = true
				res.Version = d.Current
				upserts, deleted = d.Upserts, d.Deleted
				s.count("pubsig_sync_delta_hits", 1)
			}
		case errors.Is(err, errNotFound):
			// fall through to the full manifest
		default:
			return nil, err
		}
	}
	if !res.DeltaPath {
		s.count("pubsig_sync_delta_misses", 1)
		data, err := s.get(ctx, fmt.Sprintf("/v/%d/manifest", latest.Version))
		if err != nil {
			return nil, fmt.Errorf("pubsig: fetching manifest v%d: %w", latest.Version, err)
		}
		res.ManifestBytes += int64(len(data))
		m, err := ParseManifest(data)
		if err != nil {
			return nil, err
		}
		res.Version = m.Version
		upserts = m.Entries
		inManifest := make(map[string]bool, len(m.Entries))
		for _, e := range m.Entries {
			inManifest[e.Path] = true
		}
		for path := range local {
			if !inManifest[path] {
				deleted = append(deleted, path)
			}
		}
	}
	res.FilesTotal = len(upserts) + len(deleted)

	changed := make(map[string][]byte)
	for _, e := range upserts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fi, exists := local[e.Path]
		// A local file of the right size might already be current; only
		// hashing can tell (full-path verification; on the delta path the
		// entry is known-changed, but the cheap check still dedupes
		// repeated syncs of the same delta).
		if exists && int(fi.Size) == e.Len {
			sum, n, err := tree.HashFile(e.Path)
			if err == nil {
				res.BytesHashedLocal += n
				if sum == e.Sum {
					res.FilesUnchanged++
					continue
				}
			}
		}
		if s.DryRun {
			res.FilesSynced++
			continue
		}
		var old []byte
		if exists {
			if old, err = tree.Load(e.Path); err != nil {
				old = nil // unreadable basis: fetch whole
			}
		}
		out, err := s.syncFile(ctx, res, e, old)
		if err != nil {
			return nil, fmt.Errorf("pubsig: syncing %q: %w", e.Path, err)
		}
		changed[e.Path] = out
	}

	var deletions []string
	for _, path := range deleted {
		if _, exists := local[path]; exists {
			deletions = append(deletions, path)
			res.FilesDeleted++
		}
	}
	if !s.DryRun && (len(changed) > 0 || len(deletions) > 0) {
		if err := dirio.ApplyChanges(root, changed, deletions); err != nil {
			return nil, err
		}
	}
	res.BytesDown = res.ManifestBytes + res.SigBytes + res.RangeBytes + res.BlobBytes
	s.count("pubsig_sync_files_synced", int64(res.FilesSynced))
	s.count("pubsig_sync_files_full", int64(res.FilesFull))
	s.count("pubsig_sync_files_unchanged", int64(res.FilesUnchanged))
	s.count("pubsig_sync_bytes_down", res.BytesDown)
	return res, nil
}

// syncFile brings one file to the published state described by e: signature
// + range fetches when a local basis exists, whole blob otherwise, whole
// blob again if the reconstruction fails its whole-file check (stale cache
// or block-hash collision — the manifest fingerprint backstops both).
func (s *Syncer) syncFile(ctx context.Context, res *SyncResult, e collection.ManifestEntry, old []byte) ([]byte, error) {
	start := time.Now()
	var fetched int64
	defer func() {
		if s.Tracer != nil {
			s.Tracer.Emit(obs.Event{
				Time:      time.Now(),
				Side:      "client",
				Phase:     obs.PhaseFetch,
				BytesDown: fetched,
				Dur:       time.Since(start),
			})
		}
	}()
	if e.Len == 0 {
		res.FilesSynced++
		return []byte{}, nil
	}
	hash := hex.EncodeToString(e.Sum[:])
	blobPath := fmt.Sprintf("/v/%d/blob/%s", res.Version, hash)
	full := func() ([]byte, error) {
		data, err := s.get(ctx, blobPath)
		if err != nil {
			return nil, err
		}
		res.BlobBytes += int64(len(data))
		fetched += int64(len(data))
		if len(data) != e.Len || md4.Sum(data) != e.Sum {
			return nil, fmt.Errorf("pubsig: blob %s does not match its manifest entry", hash)
		}
		res.FilesFull++
		return data, nil
	}
	if len(old) == 0 {
		return full()
	}
	sig, err := s.get(ctx, fmt.Sprintf("/v/%d/sig/%s", res.Version, hash))
	if err != nil {
		return nil, err
	}
	res.SigBytes += int64(len(sig))
	fetched += int64(len(sig))
	plan, err := NewPlan(old, sig)
	if err != nil {
		return nil, err
	}
	res.BytesHashedLocal += int64(len(old)) // the rolling scan's work
	rangeStart := res.RangeBytes
	rangeFetch := HTTPRangeFetcher(s.client(), strings.TrimSuffix(s.BaseURL, "/")+blobPath)
	out, err := plan.Reconstruct(ctx, old, func(ctx context.Context, off, length int) ([]byte, error) {
		data, err := rangeFetch(ctx, off, length)
		res.RangeBytes += int64(len(data))
		res.RangesFetched++
		fetched += int64(len(data))
		s.count("pubsig_fetch_ranges", 1)
		return data, err
	})
	if errors.Is(err, ErrVerifyFailed) {
		return full()
	}
	if err != nil {
		return nil, err
	}
	// The signature already verified out against its own whole-file hash;
	// pin it to the manifest fingerprint too, so a mislabeled artifact
	// cannot slip through.
	if md4.Sum(out) != e.Sum {
		return full()
	}
	res.BytesReusedLocal += int64(e.Len) - (res.RangeBytes - rangeStart)
	res.FilesSynced++
	return out, nil
}
