package corpus

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// WebProfile parameterizes the web-page recrawl corpus (paper §6.3: ten
// thousand pages, ~10 KB each, recrawled nightly; some pages never change,
// others change only slightly, a few churn heavily).
type WebProfile struct {
	Pages    int
	MeanSize int
	// PStatic is the fraction of pages that never change.
	PStatic float64
	// PDaily is the per-night change probability of a non-static page.
	PDaily float64
	// PHeavy is the fraction of changing pages with heavy nightly churn.
	PHeavy float64
	Edits  EditModel
	// HeavyEdits applies to heavy-churn pages.
	HeavyEdits EditModel
}

// DefaultWebProfile returns the paper-shaped profile at the given scale
// (scale 1.0 ≈ 1000 pages × ~5 KB; the paper's full scale is 10).
func DefaultWebProfile(scale float64) WebProfile {
	return WebProfile{
		Pages:      max(8, int(1000*scale)),
		MeanSize:   5 * 1024,
		PStatic:    0.35,
		PDaily:     0.30,
		PHeavy:     0.08,
		Edits:      EditModel{BurstsPer32KB: 4.0, BurstEdits: 3, EditSize: 30, BurstSpread: 120},
		HeavyEdits: EditModel{BurstsPer32KB: 16.0, BurstEdits: 8, EditSize: 120, BurstSpread: 1200},
	}
}

// WebCollection is a lazily-evolving nightly recrawl. Version(day) replays
// each page's deterministic update chain up to that night. Safe for
// concurrent use (the page cache is guarded).
type WebCollection struct {
	profile WebProfile
	seed    int64
	mu      sync.Mutex
	pages   []webPage
}

type webPage struct {
	path   string
	static bool
	heavy  bool
	seed   int64
	// cache of the last materialized (day, data)
	cachedDay  int
	cachedData []byte
}

// NewWebCollection builds the page population.
func NewWebCollection(p WebProfile, seed int64) *WebCollection {
	rng := rand.New(rand.NewSource(seed))
	wc := &WebCollection{profile: p, seed: seed}
	for i := 0; i < p.Pages; i++ {
		wc.pages = append(wc.pages, webPage{
			path:      fmt.Sprintf("web/page_%05d.html", i),
			static:    rng.Float64() < p.PStatic,
			heavy:     rng.Float64() < p.PHeavy,
			seed:      rng.Int63(),
			cachedDay: -1,
		})
	}
	return wc
}

// htmlPage generates the day-0 content of a page.
func htmlPage(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	buf.WriteString("<html><head><title>")
	buf.Write(SourceText(rng, 24))
	buf.WriteString("</title></head>\n<body>\n")
	for buf.Len() < n {
		switch rng.Intn(4) {
		case 0:
			buf.WriteString("<h2>")
			buf.Write(SourceText(rng, 16+rng.Intn(32)))
			buf.WriteString("</h2>\n")
		case 1:
			buf.WriteString("<a href=\"/")
			fmt.Fprintf(&buf, "item%d", rng.Intn(10000))
			buf.WriteString("\">")
			buf.Write(SourceText(rng, 12+rng.Intn(20)))
			buf.WriteString("</a>\n")
		default:
			buf.WriteString("<p>")
			buf.Write(SourceText(rng, 80+rng.Intn(240)))
			buf.WriteString("</p>\n")
		}
	}
	buf.WriteString("</body></html>\n")
	return buf.Bytes()
}

// materialize returns the page content as of the given night, replaying the
// chain from the most recent cached day.
func (wc *WebCollection) materialize(pi, day int) []byte {
	pg := &wc.pages[pi]
	startDay := 0
	var data []byte
	if pg.cachedDay >= 0 && pg.cachedDay <= day {
		startDay = pg.cachedDay
		data = pg.cachedData
	} else {
		rng := rand.New(rand.NewSource(pg.seed))
		size := int(float64(wc.profile.MeanSize) * math.Exp(0.8*rng.NormFloat64()))
		if size < 256 {
			size = 256
		}
		data = htmlPage(rng, size)
	}
	if pg.static {
		pg.cachedDay, pg.cachedData = day, data
		return data
	}
	for d := startDay + 1; d <= day; d++ {
		rng := rand.New(rand.NewSource(pg.seed ^ int64(d)*0x4E3779B97F4A7C15))
		if rng.Float64() >= wc.profile.PDaily {
			continue
		}
		em := wc.profile.Edits
		if pg.heavy {
			em = wc.profile.HeavyEdits
		}
		data = em.Apply(rng, data)
		// Every page that changes also gets its volatile header refreshed
		// (timestamps, counters — the "changes only slightly" pattern).
		stamp := []byte(fmt.Sprintf("<!-- generated night %d, build %d -->\n", d, rng.Intn(1<<20)))
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			if bytes.HasPrefix(data[i+1:], []byte("<!-- generated")) {
				if j := bytes.IndexByte(data[i+1:], '\n'); j >= 0 {
					data = append(data[:i+1], append(stamp, data[i+1+j+1:]...)...)
				}
			} else {
				data = append(data[:i+1], append(stamp, data[i+1:]...)...)
			}
		}
	}
	pg.cachedDay, pg.cachedData = day, append([]byte(nil), data...)
	return pg.cachedData
}

// Version materializes the whole collection as of the given night.
// Days must be requested in non-decreasing order for the cache to help;
// arbitrary order is still correct, just slower.
func (wc *WebCollection) Version(day int) *Tree {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	t := &Tree{Files: make([]File, 0, len(wc.pages))}
	for i := range wc.pages {
		t.Files = append(t.Files, File{wc.pages[i].path, wc.materialize(i, day)})
	}
	return t
}

// Pages reports the page count.
func (wc *WebCollection) Pages() int { return len(wc.pages) }
