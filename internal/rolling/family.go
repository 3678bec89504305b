package rolling

import "fmt"

// WindowRoller computes the hash of a sliding fixed-size window in O(1) per
// step.
type WindowRoller interface {
	// InitAt seeds the window at [pos, pos+window) of data, exactly as if
	// the roller had been seeded at data's start and rolled forward pos
	// times. It costs one window's worth of hashing — the entry point for
	// shard scans, where each shard seeds at its own start instead of
	// rolling through its predecessors' territory.
	InitAt(data []byte, pos int)
	// Roll slides the window one byte: out leaves, in enters.
	Roll(out, in byte)
	// Sum returns the hash of the current window.
	Sum() uint64
	// Fill writes the hashes of the windows at pos, pos+1, …,
	// pos+len(out)-1 of data into out, in one concrete loop: the batched
	// form of Sum-then-Roll, so a caller pays one interface call per batch
	// instead of two per position. The roller must hold the window at pos
	// on entry (after InitAt, Roll or a previous Fill); it returns
	// holding the window at pos+len(out)-1, so Sum equals the last value
	// written and Roll continues from there. An empty out is a no-op.
	Fill(data []byte, pos int, out []uint64)
}

// Family is a rolling, decomposable, bit-prefix-decomposable hash family —
// the contract the map-construction protocol needs (paper §5.5). Two
// implementations exist: the polynomial hash (Poly) and the modified Adler
// checksum (DecAdler), matching the paper's two prototype hash functions.
type Family interface {
	// Hash computes the full 64-bit hash of data.
	Hash(data []byte) uint64
	// Roller returns a sliding-window hasher consistent with Hash.
	Roller(window int) WindowRoller
	// DeriveRight computes the low `bits` bits of H(right) from the low
	// `bits` bits of H(parent) and at least `bits` bits of H(left), where
	// parent = left ∥ right and right has length rightLen. This is the
	// bit-prefix decomposition that lets the protocol suppress sibling
	// hash transmission.
	DeriveRight(parent uint64, bits uint, left uint64, rightLen int) uint64
	// Name identifies the family on the wire.
	Name() string
}

// Roller adapts Poly's concrete roller to the WindowRoller interface.
func (p *Poly) Roller(window int) WindowRoller { return p.NewRoller(window) }

// DeriveRight implements Family for Poly: H(parent) = H(left)·base^rightLen
// + H(right) in Z/2^64, so the low bits of H(right) follow from the low
// bits of the other two.
func (p *Poly) DeriveRight(parent uint64, bits uint, left uint64, rightLen int) uint64 {
	return Truncate(Truncate(parent, bits)-Truncate(left, bits)*p.Pow(rightLen), bits)
}

// Name implements Family.
func (p *Poly) Name() string { return "poly" }

// FamilyByName returns the named default-seeded hash family.
func FamilyByName(name string) (Family, error) {
	switch name {
	case "", "poly":
		return Default(), nil
	case "adler":
		return DefaultDecAdler(), nil
	default:
		return nil, fmt.Errorf("rolling: unknown hash family %q", name)
	}
}

// Compile-time interface checks.
var (
	_ Family = (*Poly)(nil)
	_ Family = (*DecAdler)(nil)
)
