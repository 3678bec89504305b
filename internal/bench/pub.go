package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"msync/internal/collection"
	"msync/internal/corpus"
	"msync/internal/dirio"
	"msync/internal/obs"
	"msync/internal/pubsig"
)

// Reference shape of the publish-mode fan-out experiment at Scale 1.0: a
// modest collection read by many clients, the regime where the interactive
// protocol's per-client server work dominates and published artifacts
// amortize it to zero.
const (
	pubFileCount = 400
	pubFileBytes = 8 << 10
	pubReaders   = 8
)

// PubArm is one serving mode's measurement in the fan-out report.
type PubArm struct {
	// Mode is interactive (one protocol session per reader), publish (REST
	// artifacts, cold readers), publish-cdn (same, behind a warm
	// immutable-respecting cache) or publish-delta (readers announce a base
	// version and ride /since).
	Mode    string  `json:"mode"`
	Readers int     `json:"readers"`
	Secs    float64 `json:"seconds"`

	// PublishHashed is the one-time cost of producing the artifacts (0 for
	// the interactive arm, which has no publish step).
	PublishHashed int64 `json:"publish_hashed_bytes"`
	// ServerHashedFirst and ServerHashedExtra split per-request server
	// hashing between the first reader and all later ones: the acceptance
	// criterion is ServerHashedExtra == 0 for every publish arm — an
	// additional reader costs the origin no computation.
	ServerHashedFirst int64 `json:"server_hashed_first_reader"`
	ServerHashedExtra int64 `json:"server_hashed_extra_readers"`

	DownBytesTotal     int64   `json:"down_bytes_total"`
	DownBytesPerReader float64 `json:"down_bytes_per_reader"`

	// OriginRequestsFirst/Extra count requests reaching the origin through
	// the CDN cache (cdn arm only): after the first reader warms the cache,
	// later readers should hit the origin only for the mutable endpoints.
	OriginRequestsFirst int64 `json:"origin_requests_first_reader,omitempty"`
	OriginRequestsExtra int64 `json:"origin_requests_extra_readers,omitempty"`

	// Converged reports that every reader's tree matched the served
	// collection byte-for-byte after its sync.
	Converged bool `json:"converged"`
}

// PubReport is the JSON artifact (BENCH_pub.json) of the fan-out experiment.
type PubReport struct {
	Experiment string   `json:"experiment"`
	Files      int      `json:"files"`
	FileBytes  int      `json:"file_bytes"`
	TotalBytes int64    `json:"total_bytes"`
	Readers    int      `json:"readers"`
	Arms       []PubArm `json:"arms"`
	Note       string   `json:"note"`
}

// cdnProxy is a minimal shared HTTP cache in front of an origin handler: it
// stores any successful response marked immutable (keyed by path + Range) and
// replays it without consulting the origin, modeling a CDN edge that honors
// the artifact cache-header contract. Mutable responses pass through.
type cdnProxy struct {
	origin http.Handler

	mu         sync.Mutex
	cache      map[string]*cachedResp
	originReqs int64
}

type cachedResp struct {
	status int
	header http.Header
	body   []byte
}

func newCDNProxy(origin http.Handler) *cdnProxy {
	return &cdnProxy{origin: origin, cache: make(map[string]*cachedResp)}
}

func (c *cdnProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Path + "\x00" + r.Header.Get("Range")
	c.mu.Lock()
	hit := c.cache[key]
	c.mu.Unlock()
	if hit == nil {
		rec := httptest.NewRecorder()
		c.origin.ServeHTTP(rec, r)
		c.mu.Lock()
		c.originReqs++
		c.mu.Unlock()
		hit = &cachedResp{status: rec.Code, header: rec.Header().Clone(), body: rec.Body.Bytes()}
		if hit.status < 300 && headerContains(hit.header.Get("Cache-Control"), "immutable") {
			c.mu.Lock()
			c.cache[key] = hit
			c.mu.Unlock()
		}
	}
	for k, vs := range hit.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(hit.status)
	w.Write(hit.body)
}

func (c *cdnProxy) requests() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.originReqs
}

func headerContains(header, directive string) bool {
	for len(header) > 0 {
		i := 0
		for i < len(header) && header[i] != ',' {
			i++
		}
		tok := header[:i]
		for len(tok) > 0 && (tok[0] == ' ' || tok[0] == '\t') {
			tok = tok[1:]
		}
		for len(tok) > 0 && (tok[len(tok)-1] == ' ' || tok[len(tok)-1] == '\t') {
			tok = tok[:len(tok)-1]
		}
		if tok == directive {
			return true
		}
		if i == len(header) {
			break
		}
		header = header[i+1:]
	}
	return false
}

// pubReaderTree derives reader i's local state: the previous published
// version plus a tiny personal edit, so no two readers ask for exactly the
// same work and the interactive arm cannot amortize across them. The delta
// arm must NOT use this: announcing a base version asserts the local tree is
// a faithful copy of it, and a divergent file absent from the delta would
// survive the sync.
func pubReaderTree(prev map[string][]byte, i int) map[string][]byte {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	em := corpus.EditModel{BurstsPer32KB: 1, BurstEdits: 2, EditSize: 20, BurstSpread: 100}
	keys := make([]string, 0, len(prev))
	for k := range prev {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	victim := keys[i%len(keys)]
	tree := make(map[string][]byte, len(prev))
	for k, v := range prev {
		if k == victim {
			tree[k] = em.Apply(rng, v)
		} else {
			tree[k] = v
		}
	}
	return tree
}

// measurePub builds two versions of a collection, then measures serving the
// newest to pubReaders clients under each mode.
func measurePub(opts Options) (*PubReport, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	files := int(float64(pubFileCount) * opts.Scale)
	if files < 20 {
		files = 20
	}

	v1 := make(map[string][]byte, files)
	var total int64
	for i := 0; i < files; i++ {
		data := corpus.SourceText(rng, pubFileBytes)
		v1[fmt.Sprintf("dir%02d/f%04d.txt", i%20, i)] = data
		total += int64(len(data))
	}
	v2 := storeChurn(rng, v1, 2)

	rep := &PubReport{
		Experiment: "pub.fanout",
		Files:      files,
		FileBytes:  pubFileBytes,
		TotalBytes: total,
		Readers:    pubReaders,
		Note: "v2 of a lightly-churned collection served to N readers holding (per-reader-varied) v1; " +
			"interactive runs one protocol session per reader, publish arms serve one set of " +
			"pre-hashed artifacts over HTTP; every reader verified byte-identical to the collection",
	}

	interactive, err := measurePubInteractive(v1, v2)
	if err != nil {
		return nil, err
	}
	rep.Arms = append(rep.Arms, *interactive)

	for _, arm := range []struct {
		mode  string
		cdn   bool
		delta bool
	}{
		{"publish", false, false},
		{"publish-cdn", true, false},
		{"publish-delta", false, true},
	} {
		a, err := measurePubArtifacts(v1, v2, arm.mode, arm.cdn, arm.delta)
		if err != nil {
			return nil, err
		}
		rep.Arms = append(rep.Arms, *a)
	}
	return rep, nil
}

// measurePubInteractive serves each reader with its own interactive protocol
// session: correct and tight on the wire, but the server hashes and matches
// for every single reader.
func measurePubInteractive(v1, v2 map[string][]byte) (*PubArm, error) {
	arm := &PubArm{Mode: "interactive", Readers: pubReaders, Converged: true}
	cfg := bestConfig()
	start := time.Now()
	for i := 0; i < pubReaders; i++ {
		r, err := runStoreSync(v2, nil, pubReaderTree(v1, i), false, 0, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: interactive reader %d: %w", i, err)
		}
		hashed := r.server.BytesHashed
		if i == 0 {
			arm.ServerHashedFirst = hashed
		} else {
			arm.ServerHashedExtra += hashed
		}
		arm.DownBytesTotal += r.wire()
	}
	arm.Secs = time.Since(start).Seconds()
	arm.DownBytesPerReader = float64(arm.DownBytesTotal) / pubReaders
	return arm, nil
}

// measurePubArtifacts publishes v1 and v2 once, then lets each reader
// reconcile an on-disk tree against the REST surface — optionally through a
// warm CDN-style cache, optionally announcing v1 for the /since delta path.
func measurePubArtifacts(v1, v2 map[string][]byte, mode string, cdn, delta bool) (*PubArm, error) {
	arm := &PubArm{Mode: mode, Readers: pubReaders, Converged: true}

	pubReg := obs.NewRegistry()
	store := pubsig.NewMemStore()
	p, err := pubsig.NewPublisher(store, pubsig.WithPublisherMetrics(pubReg))
	if err != nil {
		return nil, err
	}
	if _, _, err := p.Publish(v1); err != nil {
		return nil, err
	}
	if _, _, err := p.Publish(v2); err != nil {
		return nil, err
	}
	arm.PublishHashed = pubReg.Counter("pubsig_publish_bytes_hashed").Value()

	srvReg := obs.NewRegistry()
	h, err := pubsig.NewServer(store, pubsig.WithServerMetrics(srvReg))
	if err != nil {
		return nil, err
	}
	var handler http.Handler = h
	var proxy *cdnProxy
	if cdn {
		proxy = newCDNProxy(h)
		handler = proxy
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	hashedC := srvReg.Counter("pubsig_http_bytes_hashed")
	start := time.Now()
	for i := 0; i < pubReaders; i++ {
		root, err := os.MkdirTemp("", "msync-bench-pub-")
		if err != nil {
			return nil, err
		}
		local := pubReaderTree(v1, i)
		if delta {
			// Announcing base v1 asserts the tree IS v1.
			local = v1
		}
		if err := dirio.ApplyChanges(root, local, nil); err != nil {
			os.RemoveAll(root)
			return nil, err
		}
		sy := &pubsig.Syncer{Client: srv.Client(), BaseURL: srv.URL}
		if delta {
			sy.BaseVersion = 1
		}
		hashedBefore := hashedC.Value()
		reqsBefore := int64(0)
		if proxy != nil {
			reqsBefore = proxy.requests()
		}
		res, err := sy.Sync(context.Background(), root)
		if err != nil {
			os.RemoveAll(root)
			return nil, fmt.Errorf("bench: %s reader %d: %w", mode, i, err)
		}
		got, err := dirio.Load(root)
		os.RemoveAll(root)
		if err != nil {
			return nil, err
		}
		if err := collection.VerifyAgainst(got, v2); err != nil {
			return nil, fmt.Errorf("bench: %s reader %d: %w", mode, i, err)
		}
		hashed := hashedC.Value() - hashedBefore
		if i == 0 {
			arm.ServerHashedFirst = hashed
		} else {
			arm.ServerHashedExtra += hashed
		}
		if proxy != nil {
			reqs := proxy.requests() - reqsBefore
			if i == 0 {
				arm.OriginRequestsFirst = reqs
			} else {
				arm.OriginRequestsExtra += reqs
			}
		}
		arm.DownBytesTotal += res.BytesDown
	}
	arm.Secs = time.Since(start).Seconds()
	arm.DownBytesPerReader = float64(arm.DownBytesTotal) / pubReaders
	return arm, nil
}
