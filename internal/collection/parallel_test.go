package collection

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/transport"
)

// recordingConn taps an io.ReadWriter, capturing both directions so whole
// sessions can be compared byte for byte across worker counts.
type recordingConn struct {
	inner io.ReadWriter
	rd    bytes.Buffer
	wr    bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.rd.Write(p[:n])
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.wr.Write(p)
	return c.inner.Write(p)
}

// parallelSession runs one full sync with both endpoints at the given worker
// count, returning the client's byte streams and both results.
func parallelSession(t *testing.T, serverFiles, clientFiles map[string][]byte, cfg core.Config, workers int) (rd, wr []byte, res *Result, serverCosts *stats.Costs) {
	t.Helper()
	cfg.Workers = workers
	srv, err := NewServer(serverFiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	var serverErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		serverCosts, serverErr = srv.ServeContext(context.Background(), a)
	}()
	cli := NewClient(clientFiles)
	cli.Workers = workers
	rec := &recordingConn{inner: b}
	res, err = cli.SyncContext(context.Background(), rec)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client (workers=%d): %v", workers, err)
	}
	if serverErr != nil {
		t.Fatalf("server (workers=%d): %v", workers, serverErr)
	}
	return rec.rd.Bytes(), rec.wr.Bytes(), res, serverCosts
}

// TestCollectionWireDeterminism runs whole collection sessions at Workers 1,
// 2 and 8 and asserts that both directions of the connection carry exactly
// the same bytes, and that every cost counter matches — the collection-level
// face of the determinism invariant.
func TestCollectionWireDeterminism(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.12).Generate(11)
	clientFiles, serverFiles := v1.Map(), v2.Map()
	cfg := core.DefaultConfig()

	refRd, refWr, refRes, refSrv := parallelSession(t, serverFiles, clientFiles, cfg, 1)
	if err := VerifyAgainst(refRes.Files, serverFiles); err != nil {
		t.Fatalf("serial run wrong: %v", err)
	}
	for _, w := range []int{2, 8} {
		rd, wr, res, srv := parallelSession(t, serverFiles, clientFiles, cfg, w)
		if !bytes.Equal(rd, refRd) {
			t.Errorf("workers=%d: server→client stream differs from serial (%d vs %d bytes)", w, len(rd), len(refRd))
		}
		if !bytes.Equal(wr, refWr) {
			t.Errorf("workers=%d: client→server stream differs from serial (%d vs %d bytes)", w, len(wr), len(refWr))
		}
		if *res.Costs != *refRes.Costs {
			t.Errorf("workers=%d: client costs differ:\n%+v\n%+v", w, res.Costs, refRes.Costs)
		}
		if *srv != *refSrv {
			t.Errorf("workers=%d: server costs differ:\n%+v\n%+v", w, srv, refSrv)
		}
		if err := VerifyAgainst(res.Files, serverFiles); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
	}
}

// TestCollectionParallelStress runs a larger many-file session at a high
// worker count so the race detector can watch per-file engine fan-out,
// sharded scans and pooled verification under contention (go test -race).
func TestCollectionParallelStress(t *testing.T) {
	v1, v2 := corpus.EmacsProfile(0.25).Generate(29)
	cfg := core.DefaultConfig()
	_, _, res, _ := parallelSession(t, v2.Map(), v1.Map(), cfg, 8)
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
}
