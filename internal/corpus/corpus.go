// Package corpus generates the synthetic data sets the experiments run on,
// substituting for the paper's gcc/emacs release pairs and its 10,000-page
// nightly web recrawl (see DESIGN.md, substitutions table).
//
// Everything is deterministic in the seed, so experiments and tests are
// reproducible. The generators expose exactly the knobs the algorithms are
// sensitive to: file sizes, the fraction of changed files, and the locality,
// clustering and volume of edits within changed files.
package corpus

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
)

// File is one document in a collection version.
type File struct {
	Path string
	Data []byte
}

// Tree is one version of a collection.
type Tree struct {
	Files []File
}

// Map returns the tree as a path-keyed map (data not copied).
func (t *Tree) Map() map[string][]byte {
	m := make(map[string][]byte, len(t.Files))
	for _, f := range t.Files {
		m[f.Path] = f.Data
	}
	return m
}

// TotalBytes reports the total content size.
func (t *Tree) TotalBytes() int {
	n := 0
	for _, f := range t.Files {
		n += len(f.Data)
	}
	return n
}

// identifiers and keywords used to synthesize source-like text.
var srcWords = []string{
	"static", "int", "char", "void", "struct", "return", "if", "else", "for",
	"while", "switch", "case", "break", "const", "unsigned", "long", "double",
	"sizeof", "typedef", "extern", "register", "buffer", "length", "offset",
	"result", "status", "index", "count", "node", "next", "prev", "head",
	"tail", "alloc", "free", "init", "parse", "emit", "token", "symbol",
	"value", "error", "flags", "state", "table", "entry", "block", "chunk",
}

// sourceLine emits one synthetic line of code.
func sourceLine(rng *rand.Rand, buf *bytes.Buffer, indent int) {
	for i := 0; i < indent; i++ {
		buf.WriteByte('\t')
	}
	n := 2 + rng.Intn(6)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(' ')
		}
		w := srcWords[rng.Intn(len(srcWords))]
		buf.WriteString(w)
		if rng.Intn(5) == 0 {
			fmt.Fprintf(buf, "_%d", rng.Intn(100))
		}
	}
	switch rng.Intn(4) {
	case 0:
		buf.WriteString(" {")
	case 1:
		buf.WriteString(";")
	default:
		buf.WriteString("();")
	}
	buf.WriteByte('\n')
}

// SourceText generates n bytes of source-code-like text.
func SourceText(rng *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	indent := 0
	for buf.Len() < n {
		sourceLine(rng, &buf, indent)
		switch rng.Intn(6) {
		case 0:
			if indent < 4 {
				indent++
			}
		case 1:
			if indent > 0 {
				indent--
			}
		}
	}
	return buf.Bytes()[:n]
}

// RandomText generates n bytes of high-entropy data (for adversarial tests).
func RandomText(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// EditModel describes how a changed file differs from its previous version:
// a number of localized "bursts", each a cluster of line-level edits — the
// change pattern the paper identifies as what makes synchronization work.
type EditModel struct {
	// Bursts is the expected number of edit clusters per changed file
	// (scaled with file size: per 32 KB).
	BurstsPer32KB float64
	// BurstEdits is the mean number of individual edits inside a burst.
	BurstEdits int
	// EditSize is the mean size in bytes of one insert/delete/replace.
	EditSize int
	// BurstSpread is the byte range a burst's edits fall within.
	BurstSpread int
}

// Apply derives a new version of data under the model.
func (em EditModel) Apply(rng *rand.Rand, data []byte) []byte {
	out := append([]byte(nil), data...)
	nBursts := poisson(rng, em.BurstsPer32KB*float64(len(data))/(32*1024))
	if nBursts == 0 {
		nBursts = 1
	}
	for b := 0; b < nBursts; b++ {
		if len(out) == 0 {
			out = append(out, SourceText(rng, em.EditSize*em.BurstEdits)...)
			continue
		}
		center := rng.Intn(len(out))
		edits := 1 + poisson(rng, float64(em.BurstEdits-1))
		for e := 0; e < edits; e++ {
			if len(out) == 0 {
				break
			}
			pos := center + rng.Intn(2*em.BurstSpread+1) - em.BurstSpread
			if pos < 0 {
				pos = 0
			}
			if pos > len(out) {
				pos = len(out)
			}
			size := 1 + poisson(rng, float64(em.EditSize-1))
			switch rng.Intn(3) {
			case 0: // insert
				ins := SourceText(rng, size)
				out = append(out[:pos], append(ins, out[pos:]...)...)
			case 1: // delete
				end := pos + size
				if end > len(out) {
					end = len(out)
				}
				out = append(out[:pos], out[end:]...)
			default: // replace
				end := pos + size
				if end > len(out) {
					end = len(out)
				}
				repl := SourceText(rng, end-pos)
				copy(out[pos:end], repl)
			}
		}
	}
	return out
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// Knuth's method; lambdas here are small.
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// SourceTreeProfile parameterizes a versioned source-tree corpus.
type SourceTreeProfile struct {
	Name      string
	Files     int
	MeanSize  int     // mean file size in bytes
	SizeSigma float64 // log-normal sigma of sizes
	// Version-2 derivation:
	ChangedFraction float64
	NewFraction     float64
	DeletedFraction float64
	Edits           EditModel
}

// GCCProfile approximates the gcc 2.7.0→2.7.1 pair: a point release with
// many files untouched and small clustered patches elsewhere.
// Scale multiplies file count and sizes (1.0 ≈ a few-MB corpus; experiments
// pass larger scales for full runs).
func GCCProfile(scale float64) SourceTreeProfile {
	return SourceTreeProfile{
		Name:            "gcc",
		Files:           max(4, int(120*scale)),
		MeanSize:        24 * 1024,
		SizeSigma:       1.0,
		ChangedFraction: 0.35,
		NewFraction:     0.02,
		DeletedFraction: 0.01,
		Edits:           EditModel{BurstsPer32KB: 2.0, BurstEdits: 4, EditSize: 40, BurstSpread: 300},
	}
}

// EmacsProfile approximates emacs 19.28→19.29: a bigger minor release with
// more files changed and heavier edits.
func EmacsProfile(scale float64) SourceTreeProfile {
	return SourceTreeProfile{
		Name:            "emacs",
		Files:           max(4, int(150*scale)),
		MeanSize:        20 * 1024,
		SizeSigma:       1.1,
		ChangedFraction: 0.55,
		NewFraction:     0.05,
		DeletedFraction: 0.02,
		Edits:           EditModel{BurstsPer32KB: 3.5, BurstEdits: 6, EditSize: 60, BurstSpread: 600},
	}
}

// Generate produces the two versions of the corpus.
func (p SourceTreeProfile) Generate(seed int64) (v1, v2 *Tree) {
	rng := rand.New(rand.NewSource(seed))
	v1 = &Tree{}
	v2 = &Tree{}
	for i := 0; i < p.Files; i++ {
		size := int(float64(p.MeanSize) * math.Exp(p.SizeSigma*rng.NormFloat64()-p.SizeSigma*p.SizeSigma/2))
		if size < 64 {
			size = 64
		}
		path := fmt.Sprintf("%s/src/file_%04d.c", p.Name, i)
		data := SourceText(rng, size)
		v1.Files = append(v1.Files, File{path, data})
		switch {
		case rng.Float64() < p.DeletedFraction:
			// dropped from v2
		case rng.Float64() < p.ChangedFraction:
			v2.Files = append(v2.Files, File{path, p.Edits.Apply(rng, data)})
		default:
			v2.Files = append(v2.Files, File{path, data})
		}
	}
	nNew := int(float64(p.Files) * p.NewFraction)
	for i := 0; i < nNew; i++ {
		size := int(float64(p.MeanSize) * math.Exp(p.SizeSigma*rng.NormFloat64()))
		if size < 64 {
			size = 64
		}
		path := fmt.Sprintf("%s/src/new_%04d.c", p.Name, i)
		v2.Files = append(v2.Files, File{path, SourceText(rng, size)})
	}
	return v1, v2
}

// LogAppendProfile models append-mostly files (logs, journals): version 2
// is version 1 plus appended records, with an occasional small in-place
// touch-up (a rotated header, a rewritten summary line) — the classic
// synchronization-friendly workload.
type LogAppendProfile struct {
	Files        int
	MeanSize     int
	AppendFrac   float64 // appended bytes as a fraction of the old size
	TouchupProb  float64 // probability a file also gets one in-place edit
	TouchupBytes int
}

// DefaultLogAppendProfile returns a log-corpus profile at the given scale.
func DefaultLogAppendProfile(scale float64) LogAppendProfile {
	return LogAppendProfile{
		Files:        max(2, int(40*scale)),
		MeanSize:     64 * 1024,
		AppendFrac:   0.08,
		TouchupProb:  0.2,
		TouchupBytes: 40,
	}
}

// Generate produces the two versions of an append-mostly corpus.
func (p LogAppendProfile) Generate(seed int64) (v1, v2 *Tree) {
	rng := rand.New(rand.NewSource(seed))
	v1, v2 = &Tree{}, &Tree{}
	for i := 0; i < p.Files; i++ {
		size := p.MeanSize/2 + rng.Intn(p.MeanSize)
		path := fmt.Sprintf("logs/service_%03d.log", i)
		var buf bytes.Buffer
		writeLogLines(rng, &buf, size)
		old := append([]byte(nil), buf.Bytes()...)
		v1.Files = append(v1.Files, File{path, old})

		writeLogLines(rng, &buf, buf.Len()+int(float64(size)*p.AppendFrac))
		cur := append([]byte(nil), buf.Bytes()...)
		if rng.Float64() < p.TouchupProb && len(cur) > p.TouchupBytes {
			pos := rng.Intn(len(cur) - p.TouchupBytes)
			copy(cur[pos:], SourceText(rng, p.TouchupBytes))
		}
		v2.Files = append(v2.Files, File{path, cur})
	}
	return v1, v2
}

// writeLogLines appends timestamped log-like lines until buf reaches size.
func writeLogLines(rng *rand.Rand, buf *bytes.Buffer, size int) {
	levels := []string{"INFO", "WARN", "DEBUG", "ERROR"}
	for buf.Len() < size {
		fmt.Fprintf(buf, "2026-%02d-%02dT%02d:%02d:%02d %s %s id=%d\n",
			1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
			levels[rng.Intn(len(levels))],
			srcWords[rng.Intn(len(srcWords))], rng.Intn(1<<20))
	}
}

// RenameProfile models a refactoring release: most files survive untouched,
// a slice of the tree is moved to new paths verbatim (pure renames), another
// slice is moved and lightly edited, and a few files change in place. The
// workload where path-keyed change detection pays the worst-case price and
// cross-file matching recovers almost all of it.
type RenameProfile struct {
	Name     string
	Files    int
	MeanSize int
	// RenamedFraction of files move to a new path with identical content;
	// MovedEditedFraction move and also receive Edits.
	RenamedFraction     float64
	MovedEditedFraction float64
	ChangedFraction     float64 // edited in place
	Edits               EditModel
}

// DefaultRenameProfile returns a rename-heavy corpus at the given scale:
// ~20% pure renames, ~10% moved-and-edited, ~5% edited in place.
func DefaultRenameProfile(scale float64) RenameProfile {
	return RenameProfile{
		Name:                "rename",
		Files:               max(4, int(100*scale)),
		MeanSize:            16 * 1024,
		RenamedFraction:     0.20,
		MovedEditedFraction: 0.10,
		ChangedFraction:     0.05,
		Edits:               EditModel{BurstsPer32KB: 2.0, BurstEdits: 4, EditSize: 40, BurstSpread: 300},
	}
}

// Generate produces the two versions of the rename corpus.
func (p RenameProfile) Generate(seed int64) (v1, v2 *Tree) {
	rng := rand.New(rand.NewSource(seed))
	v1, v2 = &Tree{}, &Tree{}
	for i := 0; i < p.Files; i++ {
		size := p.MeanSize/2 + rng.Intn(p.MeanSize)
		path := fmt.Sprintf("%s/pkg_%02d/file_%04d.c", p.Name, i%13, i)
		data := SourceText(rng, size)
		v1.Files = append(v1.Files, File{path, data})
		r := rng.Float64()
		switch {
		case r < p.RenamedFraction:
			moved := fmt.Sprintf("%s/newpkg_%02d/file_%04d.c", p.Name, i%13, i)
			v2.Files = append(v2.Files, File{moved, data})
		case r < p.RenamedFraction+p.MovedEditedFraction:
			moved := fmt.Sprintf("%s/newpkg_%02d/file_%04d.c", p.Name, i%13, i)
			v2.Files = append(v2.Files, File{moved, p.Edits.Apply(rng, data)})
		case r < p.RenamedFraction+p.MovedEditedFraction+p.ChangedFraction:
			v2.Files = append(v2.Files, File{path, p.Edits.Apply(rng, data)})
		default:
			v2.Files = append(v2.Files, File{path, data})
		}
	}
	return v1, v2
}

// DeepTreeProfile models a deeply nested directory hierarchy (monorepos,
// vendored dependency trees): many small files under long paths, with a thin
// scattering of edits — the shape that stresses manifest size and merkle
// depth rather than per-file transfer.
type DeepTreeProfile struct {
	Name            string
	Files           int
	MeanSize        int
	Depth           int // directory nesting below the root
	ChangedFraction float64
	Edits           EditModel
}

// DefaultDeepTreeProfile returns a deep-tree corpus at the given scale.
func DefaultDeepTreeProfile(scale float64) DeepTreeProfile {
	return DeepTreeProfile{
		Name:            "deep",
		Files:           max(8, int(400*scale)),
		MeanSize:        2 * 1024,
		Depth:           6,
		ChangedFraction: 0.02,
		Edits:           EditModel{BurstsPer32KB: 2.0, BurstEdits: 3, EditSize: 30, BurstSpread: 200},
	}
}

// Generate produces the two versions of the deep-tree corpus.
func (p DeepTreeProfile) Generate(seed int64) (v1, v2 *Tree) {
	rng := rand.New(rand.NewSource(seed))
	v1, v2 = &Tree{}, &Tree{}
	for i := 0; i < p.Files; i++ {
		size := 64 + rng.Intn(2*p.MeanSize)
		dir := p.Name
		for d := 0; d < p.Depth; d++ {
			dir = fmt.Sprintf("%s/d%02d", dir, (i>>uint(2*d))%7)
		}
		path := fmt.Sprintf("%s/leaf_%05d.txt", dir, i)
		data := SourceText(rng, size)
		v1.Files = append(v1.Files, File{path, data})
		if rng.Float64() < p.ChangedFraction {
			v2.Files = append(v2.Files, File{path, p.Edits.Apply(rng, data)})
		} else {
			v2.Files = append(v2.Files, File{path, data})
		}
	}
	return v1, v2
}
