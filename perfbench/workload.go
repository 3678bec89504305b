package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"msync"
)

// workloads maps each workload name to the function that makes its fixture,
// deriving everything from the seed under a scratch directory.
var workloads = map[string]func(seed int64, work string) (*fixture, error){
	"bigfile": newBigfile,
	"wide":    newWide,
	"journal": newJournal,
}

// fixture is one workload's generated inputs plus the constructors of the
// system under test. Generating and writing inputs is the benchmark's own
// work and never timed; start is the timed set-up.
type fixture struct {
	want  map[string][]byte // the collection every session must produce
	base  map[string][]byte // the replica's collection before a session
	pairs []pair            // files changed between base and want

	// Tree workloads only: the replica directory, and for journal the
	// version store, the client's signature cache and the announced base.
	replica     string
	storeDir    string
	cacheDir    string
	baseVersion uint64
	// storeSeed holds the store with version 1 ingested, which reset
	// restores; ingestS is what that ingest took.
	storeSeed string
	ingestS   float64

	// start builds the live server (every constructor and snapshot the
	// workload needs before its first session).
	start func(opts ...msync.Option) (*msync.Server, error)
	// client builds one session's client over the replica.
	client func(opts ...msync.Option) (*msync.Client, error)
}

// reset restores the version store to its seeded state, so the next start
// repeats the same snapshot. Sessions never apply their results, so the
// replica never changes and the signature cache, filled once before the
// first set-up (see runner.prime), stays valid.
func (f *fixture) reset() error {
	if f.storeSeed == "" {
		return nil
	}
	if err := os.RemoveAll(f.storeDir); err != nil {
		return err
	}
	return copyDir(f.storeSeed, f.storeDir)
}

func (f *fixture) mapBacked() bool { return f.replica == "" }

// newBigfile: a few multi-MB files with scattered edits, map-backed server
// and client with the default config. The core engine does nearly all work.
func newBigfile(seed int64, _ string) (*fixture, error) {
	old, cur := bigfilePair(seed)
	return &fixture{
		want:  cur,
		base:  old,
		pairs: changedPairs(old, cur),
		start: func(opts ...msync.Option) (*msync.Server, error) {
			return msync.NewServer(cur, msync.DefaultConfig(), opts...)
		},
		client: func(opts ...msync.Option) (*msync.Client, error) {
			files := make(map[string][]byte, len(old))
			for p, d := range old {
				files[p] = d
			}
			return msync.NewClientE(files, opts...)
		},
	}, nil
}

// newWide: a 10k-file tree, server one version ahead of the replica, a
// long-lived directory server and a fresh directory client per session,
// default options (no signature cache). Per-file overhead dominates.
func newWide(seed int64, work string) (*fixture, error) {
	vs := treeHistory(seed, treeFiles, 2)
	srvDir, replica := filepath.Join(work, "server"), filepath.Join(work, "replica")
	for dir, m := range map[string]map[string][]byte{srvDir: vs[1], replica: vs[0]} {
		if err := writeTree(dir, m); err != nil {
			return nil, err
		}
	}
	return &fixture{
		want:    vs[1],
		base:    vs[0],
		pairs:   changedPairs(vs[0], vs[1]),
		replica: replica,
		start: func(opts ...msync.Option) (*msync.Server, error) {
			srv, werrs, err := msync.NewDirServer(srvDir, msync.DefaultConfig(), opts...)
			return srv, firstErr(err, werrs)
		},
		client: func(opts ...msync.Option) (*msync.Client, error) {
			c, werrs, err := msync.NewDirClient(replica, opts...)
			return c, firstErr(err, werrs)
		},
	}, nil
}

// newJournal: the wide workload's trees (same seed, same content) in a store
// server holding a snapshot of both versions; the client announces its
// version and keeps a signature cache. This is the repeat-sync path: one
// journal delta, cache hits, no map construction.
//
// Ingesting version 1 compresses every file into the store, which costs far
// more than a session, so it happens once here, untimed (reported as the
// traced run's store.ingest_s); reset restores the store to that state and
// start times the snapshot of version 2.
func newJournal(seed int64, work string) (*fixture, error) {
	vs := treeHistory(seed, treeFiles, 2)
	v1, v2 := filepath.Join(work, "v1"), filepath.Join(work, "v2")
	for dir, m := range map[string]map[string][]byte{v1: vs[0], v2: vs[1]} {
		if err := writeTree(dir, m); err != nil {
			return nil, err
		}
	}
	f := &fixture{
		want:        vs[1],
		base:        vs[0],
		pairs:       changedPairs(vs[0], vs[1]),
		replica:     v1, // only ever read
		storeDir:    filepath.Join(work, "store"),
		cacheDir:    filepath.Join(work, "sigcache"),
		storeSeed:   filepath.Join(work, "store-v1"),
		baseVersion: 1,
	}
	snapshot := func(dir string, want uint64, opts ...msync.Option) (*msync.Server, error) {
		srv, werrs, err := msync.NewStoreServer(dir, f.storeDir, msync.DefaultConfig(), opts...)
		if err = firstErr(err, werrs); err != nil {
			return nil, err
		}
		if v, err := srv.Snapshot(); err != nil || v != want {
			srv.Close()
			return nil, fmt.Errorf("snapshot of version %d: got %d, %v", want, v, err)
		}
		return srv, nil
	}
	t := time.Now()
	srv, err := snapshot(v1, 1)
	if err != nil {
		return nil, err
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	f.ingestS = time.Since(t).Seconds()
	if err := copyDir(f.storeDir, f.storeSeed); err != nil {
		return nil, err
	}
	f.start = func(opts ...msync.Option) (*msync.Server, error) { return snapshot(v2, 2, opts...) }
	f.client = func(opts ...msync.Option) (*msync.Client, error) {
		opts = append([]msync.Option{msync.WithBaseVersion(f.baseVersion), msync.WithSignatureCache(f.cacheDir, 0)}, opts...)
		c, werrs, err := msync.NewDirClient(f.replica, opts...)
		return c, firstErr(err, werrs)
	}
	return f, nil
}

// copyDir copies the regular files directly under src into a new dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// firstErr folds a constructor's per-file walk errors into its error: the
// benchmark's trees must be read completely.
func firstErr(err error, werrs []error) error {
	if err != nil {
		return err
	}
	if len(werrs) > 0 {
		return fmt.Errorf("%d unreadable files, first: %w", len(werrs), werrs[0])
	}
	return nil
}
