package rs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// detectPartsGeneric is the byte-wise reference implementation of
// DetectParts: one dependent Horner step per byte. FuzzDetectWordEquivalence
// pins DetectParts to it and BenchmarkRSDetectGeneric measures it; no
// production code uses it.
func (c *Code) detectPartsGeneric(p0, p1, p2 []byte) error {
	if len(p0)+len(p1)+len(p2) != c.k+c.p {
		panic(fmt.Sprintf("rs: DetectParts with %d bytes, want %d",
			len(p0)+len(p1)+len(p2), c.k+c.p))
	}
	for i := 0; i < c.p; i++ {
		row := &c.synRows[i]
		var acc byte
		for _, b := range p0 {
			acc = row[acc] ^ b
		}
		for _, b := range p1 {
			acc = row[acc] ^ b
		}
		for _, b := range p2 {
			acc = row[acc] ^ b
		}
		if acc != 0 {
			return ErrDetected
		}
	}
	return nil
}

// FuzzDetectWordEquivalence pins the word-parallel DetectParts sweep to
// the byte-wise Horner reference (detectPartsGeneric) over arbitrary
// codeword contents, arbitrary piece splits (including empty and
// non-multiple-of-8 pieces), and several code geometries. The two must
// agree exactly — same verdict for every input — because the word path
// only rearranges the reference's field operations.
func FuzzDetectWordEquivalence(f *testing.F) {
	f.Add([]byte("margins all the way down....."), uint8(3), uint8(17))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint8(0), uint8(0))
	f.Add([]byte{}, uint8(64), uint8(64))
	f.Add(bytes.Repeat([]byte{0xA5}, 80), uint8(7), uint8(9))

	codes := []*Code{
		MustNew(56, 8), // the paper's per-block geometry
		MustNew(72, 8), // DetectParts benchmark geometry
		MustNew(5, 3),  // tails shorter than a word everywhere
		MustNew(60, 4),
	}
	f.Fuzz(func(t *testing.T, raw []byte, cut0, cut1 uint8) {
		for _, code := range codes {
			n := code.CodewordLen()
			cw := make([]byte, n)
			copy(cw, raw)

			// Split the codeword into three pieces at fuzzed offsets.
			a := int(cut0) % (n + 1)
			b := a + int(cut1)%(n-a+1)
			p0, p1, p2 := cw[:a], cw[a:b], cw[b:]

			got := code.DetectParts(p0, p1, p2)
			want := code.detectPartsGeneric(p0, p1, p2)
			if !errors.Is(got, want) {
				t.Fatalf("k=%d p=%d split=(%d,%d,%d): word-parallel %v, byte-wise %v",
					code.DataLen(), code.ParityLen(), a, b-a, n-b, got, want)
			}
			// The contiguous entry point must agree as well.
			if cg := code.Detect(cw); !errors.Is(cg, want) {
				t.Fatalf("k=%d p=%d: Detect %v, byte-wise reference %v",
					code.DataLen(), code.ParityLen(), cg, want)
			}
		}
	})
}

// TestDetectWordEquivalenceEncoded drives the equivalence through real
// codewords: clean encodes must pass both paths, and every single-byte
// corruption must fail both identically.
func TestDetectWordEquivalenceEncoded(t *testing.T) {
	code := MustNew(56, 8)
	data := make([]byte, code.DataLen())
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	cw := code.Encode(data)
	if err := code.DetectParts(cw[:13], cw[13:40], cw[40:]); err != nil {
		t.Fatalf("clean split codeword flagged: %v", err)
	}
	for pos := range cw {
		cw[pos] ^= 0x5A
		got := code.DetectParts(cw[:13], cw[13:40], cw[40:])
		want := code.detectPartsGeneric(cw[:13], cw[13:40], cw[40:])
		if !errors.Is(got, ErrDetected) || !errors.Is(want, ErrDetected) {
			t.Fatalf("corruption at %d: word-parallel %v, byte-wise %v", pos, got, want)
		}
		cw[pos] ^= 0x5A
	}
}
