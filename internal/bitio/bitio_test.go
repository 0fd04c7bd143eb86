package bitio

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWriteBitsSingleByte(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0b101, 3); err != nil {
		t.Fatalf("WriteBits: %v", err)
	}
	if err := w.WriteBits(0b01101, 5); err != nil {
		t.Fatalf("WriteBits: %v", err)
	}
	got := w.Bytes()
	want := []byte{0b10101101}
	if !bytes.Equal(got, want) {
		t.Errorf("Bytes() = %08b, want %08b", got, want)
	}
	if w.Len() != 8 {
		t.Errorf("Len() = %d, want 8", w.Len())
	}
}

func TestWriteBitsCrossByte(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0xABC, 12); err != nil {
		t.Fatalf("WriteBits: %v", err)
	}
	got := w.Bytes()
	want := []byte{0xAB, 0xC0}
	if !bytes.Equal(got, want) {
		t.Errorf("Bytes() = %x, want %x", got, want)
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter()
	// Only the low 4 bits of 0xFF should land.
	if err := w.WriteBits(0xFF, 4); err != nil {
		t.Fatalf("WriteBits: %v", err)
	}
	w.Align()
	if got, want := w.Bytes()[0], byte(0xF0); got != want {
		t.Errorf("byte = %02x, want %02x", got, want)
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(123, 0); err != nil {
		t.Fatalf("WriteBits(_, 0): %v", err)
	}
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Errorf("zero-width write changed state: len=%d bytes=%d", w.Len(), len(w.Bytes()))
	}
}

func TestWriteBitsWidthErrors(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0, -1); err == nil {
		t.Error("WriteBits(_, -1) = nil, want error")
	}
	if err := w.WriteBits(0, 65); err == nil {
		t.Error("WriteBits(_, 65) = nil, want error")
	}
}

func TestReadBitsWidthErrors(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(-1); err == nil {
		t.Error("ReadBits(-1) = nil, want error")
	}
	if _, err := r.ReadBits(65); err == nil {
		t.Error("ReadBits(65) = nil, want error")
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xAA})
	if _, err := r.ReadBits(9); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("ReadBits(9) err = %v, want ErrShortBuffer", err)
	}
	// A failed read must not consume bits.
	if r.Remaining() != 8 {
		t.Errorf("Remaining() after failed read = %d, want 8", r.Remaining())
	}
}

func TestWriteBool(t *testing.T) {
	w := NewWriter()
	w.WriteBool(true)
	w.WriteBool(false)
	w.WriteBool(true)
	r := NewReader(w.Bytes())
	for i, want := range []bool{true, false, true} {
		got, err := r.ReadBool()
		if err != nil {
			t.Fatalf("ReadBool #%d: %v", i, err)
		}
		if got != want {
			t.Errorf("ReadBool #%d = %v, want %v", i, got, want)
		}
	}
}

func TestWriteBytesAligned(t *testing.T) {
	w := NewWriter()
	w.WriteBytes([]byte{1, 2, 3})
	if !bytes.Equal(w.Bytes(), []byte{1, 2, 3}) {
		t.Errorf("Bytes() = %v, want [1 2 3]", w.Bytes())
	}
}

func TestWriteBytesUnaligned(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0b1, 1); err != nil {
		t.Fatal(err)
	}
	w.WriteBytes([]byte{0xFF, 0x00})
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := r.ReadBytes(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xFF, 0x00}) {
		t.Errorf("ReadBytes = %x, want ff00", got)
	}
}

func TestReadBytesShort(t *testing.T) {
	r := NewReader([]byte{1})
	p := make([]byte, 2)
	if err := r.ReadBytes(p); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("ReadBytes err = %v, want ErrShortBuffer", err)
	}
}

func TestAlign(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0b111, 3); err != nil {
		t.Fatal(err)
	}
	w.Align()
	if w.Len() != 8 {
		t.Errorf("Len after Align = %d, want 8", w.Len())
	}
	w.Align() // no-op when aligned
	if w.Len() != 8 {
		t.Errorf("Len after second Align = %d, want 8", w.Len())
	}

	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	r.Align()
	if r.Offset() != 8 {
		t.Errorf("Offset after Align = %d, want 8", r.Offset())
	}
	r.Align()
	if r.Offset() != 8 {
		t.Errorf("Offset after second Align = %d, want 8", r.Offset())
	}
}

func TestReset(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0xFFFF, 16); err != nil {
		t.Fatal(err)
	}
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", w.Len())
	}
	if err := w.WriteBits(0xA, 4); err != nil {
		t.Fatal(err)
	}
	w.Align()
	if !bytes.Equal(w.Bytes(), []byte{0xA0}) {
		t.Errorf("Bytes after Reset+write = %x, want a0", w.Bytes())
	}
}

func TestRoundTrip64(t *testing.T) {
	values := []uint64{0, 1, 0xFF, 0xDEADBEEF, ^uint64(0)}
	for _, v := range values {
		w := NewWriter()
		if err := w.WriteBits(v, 64); err != nil {
			t.Fatal(err)
		}
		r := NewReader(w.Bytes())
		got, err := r.ReadBits(64)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("round trip 64-bit %x -> %x", v, got)
		}
	}
}

// TestReadBitsMatchesBitwiseReference reads every width from 0 to 64 at
// every bit offset of buffers from 1 to 10 bytes long, so both the
// whole-word and the short-tail gathers are hit, as are the reads that
// span a ninth byte and those that end exactly on the last bit.
func TestReadBitsMatchesBitwiseReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for size := 1; size <= 10; size++ {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		total := 8 * size
		for start := 0; start <= total; start++ {
			for n := 0; n <= MaxBits && start+n <= total; n++ {
				var want uint64
				for bit := start; bit < start+n; bit++ {
					want = want<<1 | uint64(buf[bit/8]>>(7-bit%8)&1)
				}
				r := NewReader(buf)
				r.pos = start
				got, err := r.ReadBits(n)
				if err != nil || got != want {
					t.Fatalf("%d-byte buffer, offset %d, width %d: got %#x, %v; want %#x",
						size, start, n, got, err, want)
				}
				if r.Offset() != start+n {
					t.Fatalf("%d-byte buffer, offset %d, width %d: offset after read %d, want %d",
						size, start, n, r.Offset(), start+n)
				}
			}
		}
	}
}

// TestRoundTripProperty checks that any sequence of variable-width fields
// written and then read back yields the original values.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nFields uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := int(nFields%40) + 1
		widths := make([]int, n)
		vals := make([]uint64, n)
		w := NewWriter()
		for i := 0; i < n; i++ {
			widths[i] = int(rng.Uint64N(64)) + 1
			vals[i] = rng.Uint64()
			if widths[i] < 64 {
				vals[i] &= (1 << uint(widths[i])) - 1
			}
			if err := w.WriteBits(vals[i], widths[i]); err != nil {
				return false
			}
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLenMatchesWidths verifies the writer's bit accounting.
func TestLenMatchesWidths(t *testing.T) {
	f := func(widths []uint8) bool {
		w := NewWriter()
		total := 0
		for _, wd := range widths {
			n := int(wd % 65)
			if err := w.WriteBits(0, n); err != nil {
				return false
			}
			total += n
		}
		if w.Len() != total {
			return false
		}
		wantBytes := (total + 7) / 8
		return len(w.Bytes()) == wantBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBytesRoundTripProperty checks interleaved bit and byte writes.
func TestBytesRoundTripProperty(t *testing.T) {
	f := func(prefixBits uint8, payload []byte) bool {
		nb := int(prefixBits % 8)
		w := NewWriter()
		if err := w.WriteBits(0x55, nb); err != nil {
			return false
		}
		w.WriteBytes(payload)
		r := NewReader(w.Bytes())
		if _, err := r.ReadBits(nb); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := r.ReadBytes(got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitsFor(t *testing.T) {
	tests := []struct {
		v    uint64
		want int
	}{
		{0, 1},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{255, 8},
		{256, 9},
		{^uint64(0), 64},
	}
	for _, tt := range tests {
		if got := BitsFor(tt.v); got != tt.want {
			t.Errorf("BitsFor(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		for j := 0; j < 32; j++ {
			_ = w.WriteBits(uint64(j), 9)
		}
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter()
	for j := 0; j < 32; j++ {
		_ = w.WriteBits(uint64(j), 9)
	}
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		for j := 0; j < 32; j++ {
			_, _ = r.ReadBits(9)
		}
	}
}
