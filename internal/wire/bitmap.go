package wire

import "msync/internal/bitio"

// Bitmap is a fixed-length sequence of bits exchanged in the verification
// steps of the protocol ("which hashes found a candidate", "which
// verification hashes were confirmed").
type Bitmap struct {
	bits []bool
}

// NewBitmap returns an all-false bitmap of length n.
func NewBitmap(n int) *Bitmap { return &Bitmap{bits: make([]bool, n)} }

// Len reports the number of bits.
func (b *Bitmap) Len() int { return len(b.bits) }

// Set sets bit i to v.
func (b *Bitmap) Set(i int, v bool) { b.bits[i] = v }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.bits[i] }

// Count reports the number of true bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, v := range b.bits {
		if v {
			n++
		}
	}
	return n
}

// Encode appends the bitmap to a bitio.Writer. The length is NOT encoded;
// both sides know it from protocol context.
func (b *Bitmap) Encode(w *bitio.Writer) {
	for _, v := range b.bits {
		w.WriteBit(v)
	}
}

// DecodeBitmap reads an n-bit bitmap from r.
func DecodeBitmap(r *bitio.Reader, n int) (*Bitmap, error) {
	b := NewBitmap(n)
	for i := 0; i < n; i++ {
		v, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		b.bits[i] = v
	}
	return b, nil
}
