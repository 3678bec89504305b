package collection

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/transport"
)

// -update regenerates the recorded legacy wire streams in testdata/. Only do
// this for an intentional, documented protocol change: the goldens are the
// compatibility contract that sessions without hello extensions stay
// byte-identical across versions (PROTOCOL.md "Hello extensions").
var updateGoldens = flag.Bool("update", false, "rewrite recorded wire streams in testdata/")

// recordConn wraps the client end of a pipe and captures both directions of
// the session: everything the client writes (c2s) and reads (s2c).
type recordConn struct {
	rw       io.ReadWriter
	c2s, s2c bytes.Buffer
}

func (r *recordConn) Read(p []byte) (int, error) {
	n, err := r.rw.Read(p)
	r.s2c.Write(p[:n])
	return n, err
}

func (r *recordConn) Write(p []byte) (int, error) {
	n, err := r.rw.Write(p)
	r.c2s.Write(p[:n])
	return n, err
}

// encodeStreams serializes the two directions as length-prefixed blobs.
func encodeStreams(c2s, s2c []byte) []byte {
	var out bytes.Buffer
	for _, b := range [][]byte{c2s, s2c} {
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(b)))
		out.Write(hdr[:])
		out.Write(b)
	}
	return out.Bytes()
}

// recording is one recorded session: the bytes the recorded end wrote (c2s)
// and read (s2c), and the cost accounting of both ends.
type recording struct {
	c2s, s2c []byte
	costs    [2]*stats.Costs // recorded end, far end
	// pusher marks a recorded end that holds the data: its writes are the
	// Costs S2C direction.
	pusher bool
}

// legacyScenario runs one client/server session pair over a pipe with the
// client end recorded.
type legacyScenario struct {
	name string
	run  func(t *testing.T) recording
}

// runRecorded drives client against server over a recorded pipe.
func runRecorded(t *testing.T, srv *Server, cli *Client) recording {
	t.Helper()
	a, b := transport.Pipe()
	rec := &recordConn{rw: b}
	var wg sync.WaitGroup
	var serverCosts *stats.Costs
	var serverErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		serverCosts, serverErr = srv.ServeContext(context.Background(), a)
	}()
	res, err := cli.SyncContext(context.Background(), rec)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	return recording{c2s: rec.c2s.Bytes(), s2c: rec.s2c.Bytes(), costs: [2]*stats.Costs{res.Costs, serverCosts}}
}

func legacyScenarios() []legacyScenario {
	return []legacyScenario{
		{name: "manifest_pull", run: func(t *testing.T) recording {
			v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return runRecorded(t, srv, NewClient(v1.Map()))
		}},
		{name: "tree_pull", run: func(t *testing.T) recording {
			v1, v2 := corpus.GCCProfile(0.05).Generate(9)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.TreeManifest = true
			return runRecorded(t, srv, cli)
		}},
		{name: "push", run: func(t *testing.T) recording {
			v1, v2 := corpus.EmacsProfile(0.06).Generate(11)
			pusher, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			receiver, err := NewServer(v1.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			receiver.AllowPush = true
			a, b := transport.Pipe()
			rec := &recordConn{rw: b}
			var wg sync.WaitGroup
			var srvCosts *stats.Costs
			var srvErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer a.Close()
				srvCosts, srvErr = receiver.ServeContext(context.Background(), a)
			}()
			pushCosts, err := pusher.PushContext(context.Background(), rec)
			b.Close()
			wg.Wait()
			if err != nil {
				t.Fatalf("pusher: %v", err)
			}
			if srvErr != nil {
				t.Fatalf("receiver: %v", srvErr)
			}
			return recording{c2s: rec.c2s.Bytes(), s2c: rec.s2c.Bytes(), costs: [2]*stats.Costs{pushCosts, srvCosts}, pusher: true}
		}},
		{name: "tree_pull_spec", run: func(t *testing.T) recording {
			// Tree pull with the tree-extension hello (speculative descent):
			// TREE_ACK plus multi-level answers, pinned so the negotiated
			// exchange cannot drift silently.
			v1, v2 := corpus.GCCProfile(0.05).Generate(9)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.TreeManifest = true
			cli.SpeculativeDescent = true
			return runRecorded(t, srv, cli)
		}},
		{name: "tree_pull_cross", run: func(t *testing.T) recording {
			// Tree pull with cross-file matching: a pure rename leaves the
			// WANT, an alternate-basis hint tags a moved-and-edited file.
			v1, _ := corpus.GCCProfile(0.0).Generate(17)
			serverFiles := map[string][]byte{}
			clientFiles := v1.Map()
			paths := make([]string, 0, len(clientFiles))
			for p := range clientFiles {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			for i, p := range paths {
				data := clientFiles[p]
				switch i % 7 {
				case 0:
					serverFiles["moved/"+p] = data // pure rename
				case 1:
					edited := append(append([]byte{}, data...), []byte(" // moved and edited")...)
					serverFiles["edited/"+p] = edited
				default:
					serverFiles[p] = data
				}
			}
			srv, err := NewServer(serverFiles, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(clientFiles)
			cli.TreeManifest = true
			cli.CrossFileMatch = true
			return runRecorded(t, srv, cli)
		}},
		{name: "journal_hit", run: func(t *testing.T) recording {
			// Store-backed server, announcing client at a stored version: the
			// journal verdicts carry the payloads, then an empty DELTA/ACK.
			tree1, tree2 := versionedTrees()
			cli := NewClient(tree1)
			cli.AnnounceVersion = true
			cli.BaseVersion = 1
			return runRecorded(t, versionedServer(t, tree1, tree2, core.DefaultConfig()), cli)
		}},
		{name: "journal_fallback", run: func(t *testing.T) recording {
			// A local file corrupted after its fingerprint was taken: the
			// journal delta fails to apply, its ordinal goes on the ACK and
			// the server answers with the whole file.
			tree1, tree2 := versionedTrees()
			cli := NewClientSource(corruptedAt(tree1, "mod.txt"))
			cli.AnnounceVersion = true
			cli.BaseVersion = 1
			return runRecorded(t, versionedServer(t, tree1, tree2, core.DefaultConfig()), cli)
		}},
		{name: "verify_fallback", run: func(t *testing.T) recording {
			// Weak verification lets false matches through; the whole-file
			// check fails and the engines fall back to FULL transfers.
			cfg, v1, v2 := weakVerifyTrees()
			srv, err := NewServer(v2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return runRecorded(t, srv, NewClient(v1))
		}},
		{name: "announce_unversioned", run: func(t *testing.T) recording {
			// The version-announcement extension against a server without a
			// store: the extension rides in the hello and is ignored.
			v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.AnnounceVersion = true
			cli.BaseVersion = 3
			return runRecorded(t, srv, cli)
		}},
		{name: "mux_pull", run: func(t *testing.T) recording {
			// Multiplexed pull (hello extension 2): MUX_ACK, then CYCLE and
			// STREAM framing around the per-file exchanges.
			v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			srv.MuxStreams = 4
			cli := NewClient(v1.Map())
			cli.MuxStreams = 4
			return runRecorded(t, srv, cli)
		}},
		{name: "cdc_pull", run: func(t *testing.T) recording {
			// CDC map-mode request (hello extension 4): the granted mode
			// rides as the config frame's trailing field.
			v1, v2 := corpus.EmacsProfile(0.08).Generate(5)
			srv, err := NewServer(v2.Map(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cli := NewClient(v1.Map())
			cli.MapMode = core.MapCDC
			return runRecorded(t, srv, cli)
		}},
	}
}

// staleSource is a collection whose manifest was fingerprinted before some of
// its files changed on disk, as with a stale signature cache.
type staleSource struct {
	MapSource
	manifest []ManifestEntry
}

func (s staleSource) Manifest() ([]ManifestEntry, error) { return s.manifest, nil }

// corruptedAt returns files with path's content damaged behind an unchanged
// manifest.
func corruptedAt(files map[string][]byte, path string) staleSource {
	damaged := make(map[string][]byte, len(files))
	for p, data := range files {
		damaged[p] = data
	}
	bad := append([]byte(nil), files[path]...)
	for i := 0; i < len(bad); i += 97 {
		bad[i] ^= 0x5a
	}
	damaged[path] = bad
	return staleSource{MapSource: damaged, manifest: BuildManifest(files)}
}

// weakVerifyTrees returns core.TestWeakVerifyFallsBack's 2-bit verification
// config and four files whose new versions are unrelated source text, so
// false matches pass verification and every engine falls back to FULL.
func weakVerifyTrees() (cfg core.Config, v1, v2 map[string][]byte) {
	cfg = core.DefaultConfig()
	cfg.VerifyBits = 2
	cfg.SlackBits = 1
	cfg.MinHashBits = 10
	rng := rand.New(rand.NewSource(0))
	v1 = make(map[string][]byte)
	v2 = make(map[string][]byte)
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("src/f%d.c", i)
		v1[p] = corpus.SourceText(rng, 12_000)
		v2[p] = corpus.SourceText(rng, 12_000)
	}
	return cfg, v1, v2
}

// TestLegacyWireRecorded pins the exact byte streams of representative
// sessions. The multiplexing extension (hello extension 2) must leave every
// session that does not negotiate it byte-identical; any diff here is a wire
// compatibility break.
func TestLegacyWireRecorded(t *testing.T) {
	for _, sc := range legacyScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			rec := sc.run(t)
			got := encodeStreams(rec.c2s, rec.s2c)
			path := filepath.Join("testdata", fmt.Sprintf("legacy_%s.bin", sc.name))
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run go test -run TestLegacyWireRecorded -update ./internal/collection): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recorded wire stream for %s diverged from golden (%d bytes vs %d): "+
					"non-extension sessions must stay byte-identical", sc.name, len(got), len(want))
			}
		})
	}
}

// TestLegacyWireDeterministic guards the goldens themselves: two runs of the
// same scenario must produce identical bytes, otherwise the recorded-stream
// comparison would be meaningless.
func TestLegacyWireDeterministic(t *testing.T) {
	for _, sc := range legacyScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			r1, r2 := sc.run(t), sc.run(t)
			if !bytes.Equal(r1.c2s, r2.c2s) || !bytes.Equal(r1.s2c, r2.s2c) {
				t.Fatal("legacy session transcript is nondeterministic")
			}
		})
	}
}

// TestCostsMatchPipe: Costs is exactly the bytes on the pipe. For every
// recorded scenario, plus a pull whose VERDICTS frame carries enough FULL
// payload to need a longer frame header than its control bytes alone, both
// ends' per-direction totals equal the recorded streams.
func TestCostsMatchPipe(t *testing.T) {
	scenarios := append(legacyScenarios(),
		legacyScenario{name: "full_heavy", run: func(t *testing.T) recording {
			rng := rand.New(rand.NewSource(1))
			files := make(map[string][]byte)
			for i := 0; i < 4; i++ {
				data := make([]byte, 8<<10)
				rng.Read(data)
				files[fmt.Sprintf("blob%d.bin", i)] = data
			}
			srv, err := NewServer(files, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return runRecorded(t, srv, NewClient(nil))
		}},
	)
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rec := sc.run(t)
			up, down := len(rec.c2s), len(rec.s2c)
			if rec.pusher {
				up, down = down, up
			}
			for i, c := range rec.costs {
				if got := c.DirTotal(stats.C2S); got != int64(up) {
					t.Errorf("end %d: Costs C2S %d, pipe carried %d", i, got, up)
				}
				if got := c.DirTotal(stats.S2C); got != int64(down) {
					t.Errorf("end %d: Costs S2C %d, pipe carried %d", i, got, down)
				}
			}
		})
	}
}
