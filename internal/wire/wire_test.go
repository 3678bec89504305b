package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"msync/internal/bitio"
)

func TestBufferParserRoundTrip(t *testing.T) {
	b := NewBuffer(64)
	b.Uvarint(0)
	b.Uvarint(1 << 40)
	b.Varint(-12345)
	b.Byte(0xAB)
	b.Bool(true)
	b.Bool(false)
	b.Bytes([]byte("payload"))
	b.String("path/to/file")
	b.Raw([]byte{9, 9})

	p := NewParser(b.Build())
	if v, _ := p.Uvarint(); v != 0 {
		t.Fatal("uvarint 0")
	}
	if v, _ := p.Uvarint(); v != 1<<40 {
		t.Fatal("uvarint big")
	}
	if v, _ := p.Varint(); v != -12345 {
		t.Fatal("varint")
	}
	if v, _ := p.Byte(); v != 0xAB {
		t.Fatal("byte")
	}
	if v, _ := p.Bool(); !v {
		t.Fatal("bool true")
	}
	if v, _ := p.Bool(); v {
		t.Fatal("bool false")
	}
	if v, _ := p.Bytes(); string(v) != "payload" {
		t.Fatal("bytes")
	}
	if v, _ := p.String(); v != "path/to/file" {
		t.Fatal("string")
	}
	if v, _ := p.Raw(2); !bytes.Equal(v, []byte{9, 9}) {
		t.Fatal("raw")
	}
	if p.Remaining() != 0 {
		t.Fatalf("remaining %d", p.Remaining())
	}
}

func TestQuickVarints(t *testing.T) {
	f := func(u uint64, s int64) bool {
		b := NewBuffer(20)
		b.Uvarint(u)
		b.Varint(s)
		p := NewParser(b.Build())
		gu, err1 := p.Uvarint()
		gs, err2 := p.Varint()
		return err1 == nil && err2 == nil && gu == u && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParserTruncation(t *testing.T) {
	b := NewBuffer(8)
	b.Bytes([]byte("hello"))
	raw := b.Build()
	for cut := 0; cut < len(raw); cut++ {
		p := NewParser(raw[:cut])
		if _, err := p.Bytes(); err == nil {
			t.Fatalf("cut=%d: no error", cut)
		}
	}
}

func TestParserEmptyReads(t *testing.T) {
	p := NewParser(nil)
	if _, err := p.Uvarint(); err == nil {
		t.Fatal("uvarint on empty")
	}
	if _, err := p.Byte(); err == nil {
		t.Fatal("byte on empty")
	}
	if _, err := p.Raw(1); err == nil {
		t.Fatal("raw on empty")
	}
	if _, err := p.Raw(-1); err == nil {
		t.Fatal("negative raw")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	// The last three straddle the reader's buffer size, past which a payload
	// grows as it arrives.
	payloads := [][]byte{nil, []byte("a"), bytes.Repeat([]byte("xyz"), 10000),
		pattern(readBufSize), pattern(readBufSize + 1), pattern(5*readBufSize + 3)}
	types := []byte{FrameHello, FrameDelta, FrameRoundHashes, FrameDelta, FrameFull, FrameVerdicts}
	for i, p := range payloads {
		if err := fw.WriteFrame(types[i], p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for i, p := range payloads {
		ft, got, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if ft != types[i] || !bytes.Equal(got, p) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestExpectFrame(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.WriteFrame(FrameAck, []byte("ok"))
	fw.WriteFrame(FrameError, []byte("boom"))
	fw.WriteFrame(FrameDone, nil)
	fw.Flush()
	fr := NewFrameReader(&buf)
	if p, err := fr.ExpectFrame(FrameAck); err != nil || string(p) != "ok" {
		t.Fatalf("p=%q err=%v", p, err)
	}
	// An error frame surfaces the remote message.
	if _, err := fr.ExpectFrame(FrameAck); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// A wrong type is reported with both names.
	if _, err := fr.ExpectFrame(FrameDelta); err == nil || !strings.Contains(err.Error(), "DONE") {
		t.Fatalf("err = %v", err)
	}
}

func TestExpectFrameAfter(t *testing.T) {
	read := func(frames ...[]byte) *FrameReader {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		for _, f := range frames {
			fw.WriteFrame(f[0], f[1:])
		}
		fw.Flush()
		return NewFrameReader(&buf)
	}
	frame := func(t byte, payload string) []byte { return append([]byte{t}, payload...) }

	// Optional frame present: both payloads come back.
	opt, p, err := read(frame(FrameMuxAck, "grant"), frame(FrameVerdicts, "v")).ExpectFrameAfter(FrameMuxAck, FrameVerdicts)
	if err != nil || string(opt) != "grant" || string(p) != "v" {
		t.Fatalf("present: opt=%q p=%q err=%v", opt, p, err)
	}
	// Optional frame absent: opt is nil.
	opt, p, err = read(frame(FrameVerdicts, "v")).ExpectFrameAfter(FrameMuxAck, FrameVerdicts)
	if err != nil || opt != nil || string(p) != "v" {
		t.Fatalf("absent: opt=%q p=%q err=%v", opt, p, err)
	}
	// ERROR surfaces the remote message.
	if _, _, err := read(frame(FrameError, "boom")).ExpectFrameAfter(FrameMuxAck, FrameVerdicts); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error: err = %v", err)
	}
	// BUSY decodes to a *BusyError carrying the hint.
	_, _, err = read(append([]byte{FrameBusy}, EncodeBusy(2*time.Second)...)).ExpectFrameAfter(FrameTreeAck, FrameTree)
	var busy *BusyError
	if !errors.As(err, &busy) || busy.RetryAfter != 2*time.Second {
		t.Fatalf("busy: err = %v", err)
	}
	// A wrong frame, after the optional one or in its place, names both.
	for _, r := range []*FrameReader{
		read(frame(FrameDone, "")),
		read(frame(FrameTreeAck, "g"), frame(FrameDone, "")),
	} {
		if _, _, err := r.ExpectFrameAfter(FrameTreeAck, FrameTree); err == nil ||
			!strings.Contains(err.Error(), "DONE") || !strings.Contains(err.Error(), "TREE") {
			t.Fatalf("wrong frame: err = %v", err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	// Craft a header declaring an absurd size.
	var buf bytes.Buffer
	buf.WriteByte(FrameDelta)
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	fr := NewFrameReader(&buf)
	if _, _, err := fr.ReadFrame(); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var full bytes.Buffer
	fw := NewFrameWriter(&full)
	fw.WriteFrame(FrameDelta, []byte("0123456789"))
	fw.Flush()
	raw := full.Bytes()
	fr := NewFrameReader(bytes.NewReader(raw[:len(raw)-3]))
	if _, _, err := fr.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v", err)
	}
}

// pattern returns n bytes that differ at nearby offsets, so a payload
// reassembled out of order does not compare equal.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// TestFrameDeclaredHugeStalls: a header declaring MaxFrameSize followed by a
// few payload bytes and EOF fails with io.ErrUnexpectedEOF, and the reader
// allocates in proportion to the bytes that arrived, not the declared size.
func TestFrameDeclaredHugeStalls(t *testing.T) {
	var hdr bytes.Buffer
	hdr.WriteByte(FrameVerdicts)
	var size [binary.MaxVarintLen64]byte
	hdr.Write(size[:binary.PutUvarint(size[:], MaxFrameSize)])
	hdr.WriteString("a few payload bytes")
	fr := NewFrameReader(&hdr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := fr.ReadFrame()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 4<<20 {
		t.Fatalf("allocated %d bytes for a stalled frame that declared %d", d, MaxFrameSize)
	}
}

func TestFrameNames(t *testing.T) {
	for ft := byte(1); ft <= FrameAck; ft++ {
		if strings.HasPrefix(FrameName(ft), "UNKNOWN") {
			t.Errorf("frame %d has no name", ft)
		}
	}
	if !strings.HasPrefix(FrameName(200), "UNKNOWN") {
		t.Error("unknown frame should say so")
	}
}

func TestBitmapRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		bm := NewBitmap(len(bits))
		for i, v := range bits {
			bm.Set(i, v)
		}
		w := &bitio.Writer{}
		bm.Encode(w)
		r := bitio.NewReader(w.Bytes())
		got, err := DecodeBitmap(r, len(bits))
		if err != nil {
			return false
		}
		for i, v := range bits {
			if got.Get(i) != v {
				return false
			}
		}
		return got.Count() == bm.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapDecodeShort(t *testing.T) {
	r := bitio.NewReader([]byte{0xFF})
	if _, err := DecodeBitmap(r, 9); err == nil {
		t.Fatal("no error for short input")
	}
}

// TestVarintTypedErrors: overlong and truncated varints are told apart by
// distinct typed errors instead of a shared "truncated" catch-all.
func TestVarintTypedErrors(t *testing.T) {
	overlong := bytes.Repeat([]byte{0x80}, 10)
	overlong = append(overlong, 0x01) // 11 bytes: past MaxVarintLen64
	if _, err := NewParser(overlong).Uvarint(); err != ErrVarintOverflow {
		t.Fatalf("overlong Uvarint error = %v, want ErrVarintOverflow", err)
	}
	if _, err := NewParser(overlong).Varint(); err != ErrVarintOverflow {
		t.Fatalf("overlong Varint error = %v, want ErrVarintOverflow", err)
	}
	// Tenth byte with more than one value bit: overflows uint64.
	hot := append(bytes.Repeat([]byte{0xFF}, 9), 0x7F)
	if _, err := NewParser(hot).Uvarint(); err != ErrVarintOverflow {
		t.Fatalf("hot-tail Uvarint error = %v, want ErrVarintOverflow", err)
	}
	truncated := []byte{0xFF, 0x90}
	if _, err := NewParser(truncated).Uvarint(); err != ErrTruncated {
		t.Fatalf("truncated Uvarint error = %v, want ErrTruncated", err)
	}
	if _, err := NewParser(truncated).Varint(); err != ErrTruncated {
		t.Fatalf("truncated Varint error = %v, want ErrTruncated", err)
	}
	if _, err := NewParser(nil).Uvarint(); err != ErrTruncated {
		t.Fatalf("empty Uvarint error = %v, want ErrTruncated", err)
	}
}

// TestFrameReaderVarintErrors: the frame length prefix gets the same
// treatment — overlong headers fail typed, truncated ones as unexpected EOF.
func TestFrameReaderVarintErrors(t *testing.T) {
	overlong := append([]byte{FrameHello}, bytes.Repeat([]byte{0x80}, 10)...)
	overlong = append(overlong, 0x01)
	if _, _, err := NewFrameReader(bytes.NewReader(overlong)).ReadFrame(); err != ErrVarintOverflow {
		t.Fatalf("overlong frame length error = %v, want ErrVarintOverflow", err)
	}
	hot := append([]byte{FrameHello}, bytes.Repeat([]byte{0xFF}, 9)...)
	hot = append(hot, 0x7F)
	if _, _, err := NewFrameReader(bytes.NewReader(hot)).ReadFrame(); err != ErrVarintOverflow {
		t.Fatalf("hot-tail frame length error = %v, want ErrVarintOverflow", err)
	}
	truncated := []byte{FrameHello, 0xFF}
	if _, _, err := NewFrameReader(bytes.NewReader(truncated)).ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame length error = %v, want ErrUnexpectedEOF", err)
	}
	// A valid max-length encoding still decodes (counts must match too).
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(FrameAck, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fw.Flush()
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	if _, payload, err := fr.ReadFrame(); err != nil || len(payload) != 3 {
		t.Fatalf("round-trip frame = (%v, %v)", payload, err)
	}
	if _, b := fr.Counts(); b != int64(buf.Len()) {
		t.Fatalf("reader counted %d bytes, wrote %d", b, buf.Len())
	}
}

// TestBusyRoundTrip: BUSY payload encoding, decoding and the ExpectFrame
// classification that turns it into a typed error.
func TestBusyRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 250 * time.Millisecond, 30 * time.Second} {
		got := DecodeBusy(EncodeBusy(d))
		if got.RetryAfter != d {
			t.Fatalf("busy round-trip %v -> %v", d, got.RetryAfter)
		}
	}
	// Sub-millisecond hints round up, never to zero.
	if got := DecodeBusy(EncodeBusy(100 * time.Microsecond)); got.RetryAfter != time.Millisecond {
		t.Fatalf("sub-ms hint decoded to %v, want 1ms", got.RetryAfter)
	}
	// Malformed payloads degrade to a zero hint.
	if got := DecodeBusy([]byte{0xFF}); got.RetryAfter != 0 {
		t.Fatalf("malformed busy payload decoded to %v", got.RetryAfter)
	}

	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(FrameBusy, EncodeBusy(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	fw.Flush()
	_, err := NewFrameReader(bytes.NewReader(buf.Bytes())).ExpectFrame(FrameVerdicts)
	var busy *BusyError
	if !errors.As(err, &busy) || busy.RetryAfter != 2*time.Second {
		t.Fatalf("ExpectFrame on BUSY = %v, want BusyError{2s}", err)
	}
	if FrameName(FrameBusy) != "BUSY" {
		t.Fatalf("FrameName(FrameBusy) = %q", FrameName(FrameBusy))
	}
}
