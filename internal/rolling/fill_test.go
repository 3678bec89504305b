package rolling

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkFill scans every window of data through Fill in batches of the given
// size — the way the scan kernel drives it: InitAt, then Fill, Roll once,
// Fill, … — and checks each value against Hash of that window computed from
// scratch, that Sum after every Fill is the last value written, that Roll
// after a Fill continues from it, and that an empty Fill changes nothing.
func checkFill(fam Family, data []byte, window, batch int) error {
	positions := len(data) - window + 1
	r := fam.Roller(window)
	r.InitAt(data, 0)
	out := make([]uint64, batch)
	for pos := 0; pos < positions; pos += batch {
		if pos > 0 {
			r.Roll(data[pos-1], data[pos-1+window])
			if got, want := r.Sum(), fam.Hash(data[pos:pos+window]); got != want {
				return fmt.Errorf("Roll after Fill at %d: %x, want %x", pos, got, want)
			}
		}
		before := r.Sum()
		r.Fill(data, pos, nil)
		if r.Sum() != before {
			return fmt.Errorf("empty Fill at %d moved the window", pos)
		}
		n := min(batch, positions-pos)
		r.Fill(data, pos, out[:n])
		for i, h := range out[:n] {
			if want := fam.Hash(data[pos+i : pos+i+window]); h != want {
				return fmt.Errorf("window %d: Fill %x, Hash %x", pos+i, h, want)
			}
		}
		if r.Sum() != out[n-1] {
			return fmt.Errorf("Sum after Fill at %d: %x, last written %x", pos, r.Sum(), out[n-1])
		}
	}
	return nil
}

// TestFillMatchesHash: Fill must write Hash of every window, for both
// families, at window sizes from 1 through the odd 1949 to the whole
// buffer, and batch sizes from one position to more than the buffer holds.
func TestFillMatchesHash(t *testing.T) {
	data := randBytes(rand.New(rand.NewSource(12)), 5000)
	for _, fam := range []Family{Default(), DefaultDecAdler()} {
		for _, window := range []int{1, 2, 16, 128, 1949, len(data)} {
			for _, batch := range []int{1, 7, 1024, len(data)} {
				if err := checkFill(fam, data, window, batch); err != nil {
					t.Fatalf("%s window=%d batch=%d: %v", fam.Name(), window, batch, err)
				}
			}
		}
	}
}

// FuzzRollerFill checks the Fill contract (see checkFill) on arbitrary
// data, window and batch sizes, for both families.
func FuzzRollerFill(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(5), uint16(3), false)
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255}, uint16(7), uint16(1), true)
	f.Add(make([]byte, 300), uint16(128), uint16(1024), true)
	f.Fuzz(func(t *testing.T, data []byte, windowRaw, batchRaw uint16, adler bool) {
		if len(data) == 0 {
			return
		}
		var fam Family = Default()
		if adler {
			fam = DefaultDecAdler()
		}
		window := 1 + int(windowRaw)%len(data)
		batch := 1 + int(batchRaw)%2048
		if err := checkFill(fam, data, window, batch); err != nil {
			t.Fatalf("%s window=%d batch=%d: %v", fam.Name(), window, batch, err)
		}
	})
}
