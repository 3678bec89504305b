package collection

import (
	"context"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/transport"
)

// pushSession pushes srcFiles into a replica holding dstFiles.
func pushSession(t *testing.T, srcFiles, dstFiles map[string][]byte, tree bool) (adopted map[string][]byte, pushCosts *stats.Costs) {
	t.Helper()
	replica, err := NewServer(dstFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	replica.AllowPush = true
	var got map[string][]byte
	replica.OnUpdate = func(files map[string][]byte) { got = files }

	pusher, err := NewServer(srcFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pusher.TreeManifest = tree

	a, b := transport.Pipe()
	var wg sync.WaitGroup
	var replicaErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		_, replicaErr = replica.ServeContext(context.Background(), a)
	}()
	costs, err := pusher.PushContext(context.Background(), b)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if replicaErr != nil {
		t.Fatalf("replica: %v", replicaErr)
	}
	return got, costs
}

func TestPushEndToEnd(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.1).Generate(31)
	adopted, costs := pushSession(t, v2.Map(), v1.Map(), false)
	if err := VerifyAgainst(adopted, v2.Map()); err != nil {
		t.Fatal(err)
	}
	if costs.Total() >= int64(v2.TotalBytes()) {
		t.Fatalf("push cost %d not below full size %d", costs.Total(), v2.TotalBytes())
	}
	t.Logf("push: %d bytes for %d-byte corpus", costs.Total(), v2.TotalBytes())
}

func TestPushTreeMode(t *testing.T) {
	v1, v2 := corpus.EmacsProfile(0.06).Generate(8)
	adopted, _ := pushSession(t, v2.Map(), v1.Map(), true)
	if err := VerifyAgainst(adopted, v2.Map()); err != nil {
		t.Fatal(err)
	}
}

func TestPushRejectedWhenDisallowed(t *testing.T) {
	replica, err := NewServer(map[string][]byte{"a": []byte("old")}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pusher, err := NewServer(map[string][]byte{"a": []byte("new")}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		replica.ServeContext(context.Background(), a)
	}()
	_, pushErr := pusher.PushContext(context.Background(), b)
	b.Close()
	wg.Wait()
	if pushErr == nil {
		t.Fatal("push accepted by a server without AllowPush")
	}
}

// TestPushThenServe: after adopting a push, the server serves the new data.
func TestPushThenServe(t *testing.T) {
	v1, v2 := corpus.GCCProfile(0.05).Generate(77)
	replica, err := NewServer(v1.Map(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	replica.AllowPush = true
	pusher, err := NewServer(v2.Map(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	a, b := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		replica.ServeContext(context.Background(), a)
	}()
	if _, err := pusher.PushContext(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	b.Close()
	wg.Wait()

	// Now a fresh puller should receive v2 from the replica.
	c, d := transport.Pipe()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c.Close()
		replica.ServeContext(context.Background(), c)
	}()
	res, err := NewClient(map[string][]byte{}).SyncContext(context.Background(), d)
	d.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatal(err)
	}
}
