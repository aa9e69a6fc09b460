// Package rs implements systematic Reed-Solomon codes over GF(2^8).
//
// Hetero-DMR (§III-B of the paper) uses an eight-byte Reed-Solomon code
// over each 64-byte memory block two ways:
//
//   - Detection-only decoding for the unsafely-fast copies: decoding stops
//     after the syndrome check, never attempting correction, so the code
//     detects ALL errors affecting up to eight bytes (its full redundancy
//     goes to detection) and miscorrection-induced silent data corruption
//     is impossible. Errors wider than eight bytes escape with probability
//     2^-64.
//   - Conventional correction decoding (Berlekamp-Massey + Chien + Forney)
//     for the always-in-spec originals, correcting up to four byte errors
//     exactly like a commodity server memory controller would.
//
// The code is systematic: a codeword is the k data bytes followed by
// n-k parity bytes.
package rs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// Code is a Reed-Solomon code with fixed data and parity lengths.
// A Code is immutable after construction and safe for concurrent use.
type Code struct {
	k   int    // data bytes per codeword
	p   int    // parity bytes per codeword
	gen []byte // generator polynomial, ascending-degree, degree p

	// Precomputed multiplication rows (see gf256.MulTable), so the hot
	// detect/encode paths are pure table lookups with no log/exp
	// indirection and no per-call allocation:
	//   synRows[i][v] == v * alpha^i   (syndrome evaluation points)
	//   genRows[j][v] == v * gen[p-1-j] (encoder long-division step)
	synRows [][256]byte
	genRows [][256]byte

	// chunkRows power the word-parallel syndrome sweep: consuming eight
	// codeword bytes b0..b7 at once turns eight dependent Horner steps
	//   acc = row[acc] ^ b
	// into one data-parallel combination
	//   acc' = acc*a^8i ^ b0*a^7i ^ b1*a^6i ^ ... ^ b6*a^i ^ b7
	// whose lookups are independent of each other.
	//   chunkRows[i][m-1][v] == v * alpha^(i*m)   (m = 1..8, i >= 1)
	// Syndrome 0 needs no tables (alpha^0 = 1 makes it a plain parity).
	chunkRows [][8][256]byte
}

// Errors returned by the decoders.
var (
	// ErrDetected reports that the syndrome check found at least one error
	// (detection-only decoding deliberately stops here).
	ErrDetected = errors.New("rs: error detected")
	// ErrUncorrectable reports that correction decoding could not produce a
	// valid codeword (more errors than the code can correct).
	ErrUncorrectable = errors.New("rs: uncorrectable error")
)

// New returns a Reed-Solomon code with k data bytes and p parity bytes per
// codeword. It returns an error unless 0 < k, 0 < p and k+p <= 255.
func New(k, p int) (*Code, error) {
	if k <= 0 || p <= 0 || k+p > 255 {
		return nil, fmt.Errorf("rs: invalid code parameters k=%d p=%d", k, p)
	}
	// g(x) = prod_{i=0}^{p-1} (x + alpha^i), ascending-degree coefficients.
	gen := []byte{1}
	for i := 0; i < p; i++ {
		gen = gf256.PolyMul(gen, []byte{gf256.Exp(i), 1})
	}
	c := &Code{k: k, p: p, gen: gen}
	c.synRows = make([][256]byte, p)
	c.genRows = make([][256]byte, p)
	for i := 0; i < p; i++ {
		c.synRows[i] = gf256.MulTable(gf256.Exp(i))
		c.genRows[i] = gf256.MulTable(gen[p-1-i])
	}
	c.chunkRows = make([][8][256]byte, p)
	for i := 1; i < p; i++ {
		for m := 1; m <= 8; m++ {
			c.chunkRows[i][m-1] = gf256.MulTable(gf256.Exp((i * m) % 255))
		}
	}
	return c, nil
}

// MustNew is New that panics on error, for static configurations.
func MustNew(k, p int) *Code {
	c, err := New(k, p)
	if err != nil {
		panic(err)
	}
	return c
}

// DataLen returns the number of data bytes per codeword.
func (c *Code) DataLen() int { return c.k }

// ParityLen returns the number of parity bytes per codeword.
func (c *Code) ParityLen() int { return c.p }

// CodewordLen returns the total codeword length in bytes.
func (c *Code) CodewordLen() int { return c.k + c.p }

// CorrectableErrors returns the maximum number of byte errors the
// correction decoder can repair (floor(p/2)).
func (c *Code) CorrectableErrors() int { return c.p / 2 }

// DetectableErrors returns the maximum number of byte errors guaranteed to
// be detected by detection-only decoding (all p parity bytes are spent on
// detection).
func (c *Code) DetectableErrors() int { return c.p }

// Encode appends p parity bytes to the k data bytes and returns the
// codeword. It panics if len(data) != k.
func (c *Code) Encode(data []byte) []byte {
	if len(data) != c.k {
		panic(fmt.Sprintf("rs: Encode with %d data bytes, want %d", len(data), c.k))
	}
	cw := make([]byte, c.k+c.p)
	copy(cw, data)
	c.EncodeInto(cw)
	return cw
}

// EncodeInto computes parity in place: cw must be k+p bytes long with the
// data already in cw[:k]; the parity is written to cw[k:].
func (c *Code) EncodeInto(cw []byte) {
	if len(cw) != c.k+c.p {
		panic(fmt.Sprintf("rs: EncodeInto with %d bytes, want %d", len(cw), c.k+c.p))
	}
	// Polynomial long division of d(x)*x^p by g(x); remainder is parity.
	// We process data most-significant coefficient first (index 0 is the
	// x^(n-1) coefficient). The remainder lives on the stack for every
	// practical parity width, so encoding does not allocate.
	var remBuf [16]byte
	var rem []byte
	if c.p <= len(remBuf) {
		rem = remBuf[:c.p]
	} else {
		rem = make([]byte, c.p)
	}
	for i := 0; i < c.k; i++ {
		factor := cw[i] ^ rem[0]
		copy(rem, rem[1:])
		rem[c.p-1] = 0
		if factor != 0 {
			// Subtract factor*g(x); gen has degree p with gen[p]==1.
			for j := 0; j < c.p; j++ {
				rem[j] ^= c.genRows[j][factor]
			}
		}
	}
	copy(cw[c.k:], rem)
}

// syndromes evaluates the received polynomial at alpha^0..alpha^(p-1).
// The received word cw is interpreted big-endian: cw[0] is the coefficient
// of x^(n-1). It returns the syndrome vector and whether any is non-zero.
func (c *Code) syndromes(cw []byte) ([]byte, bool) {
	n := c.k + c.p
	syn := make([]byte, c.p)
	nonzero := false
	for i := 0; i < c.p; i++ {
		row := &c.synRows[i]
		var acc byte
		for j := 0; j < n; j++ {
			acc = row[acc] ^ cw[j]
		}
		syn[i] = acc
		if acc != 0 {
			nonzero = true
		}
	}
	return syn, nonzero
}

// Detect performs detection-only decoding: it checks the syndromes and
// returns nil if the codeword is consistent, or ErrDetected otherwise.
// It never modifies cw and never attempts correction — this is the decode
// mode Hetero-DMR applies to copies read at unsafely fast data rates.
// It allocates nothing: each syndrome is a Horner scan through the
// precomputed alpha^i multiplication row. It panics if len(cw) != k+p.
func (c *Code) Detect(cw []byte) error {
	if len(cw) != c.k+c.p {
		panic(fmt.Sprintf("rs: Detect with %d bytes, want %d", len(cw), c.k+c.p))
	}
	return c.DetectParts(cw, nil, nil)
}

// DetectParts is Detect over a codeword stored as up to three
// non-contiguous pieces, scanned in order (empty pieces are fine). It lets
// callers that hold data, embedded metadata, and parity in separate
// buffers — like the ECC layer's (data, address, parity) split — run the
// syndrome check without assembling a contiguous codeword. It panics
// unless the pieces' lengths sum to k+p.
//
// The sweep is word-parallel: syndrome 0 is a plain parity folded eight
// bytes at a time with uint64 XORs, and each later syndrome consumes
// eight-byte chunks through the precomputed chunkRows. Both rearrange the
// exact field operations of the byte-wise Horner scan (the test-only
// reference detectPartsGeneric, pinned equal by FuzzDetectWordEquivalence),
// so the result is bit-identical, including which syndrome triggers the
// early return.
func (c *Code) DetectParts(p0, p1, p2 []byte) error {
	if len(p0)+len(p1)+len(p2) != c.k+c.p {
		panic(fmt.Sprintf("rs: DetectParts with %d bytes, want %d",
			len(p0)+len(p1)+len(p2), c.k+c.p))
	}
	x := xorFold(p2, xorFold(p1, xorFold(p0, 0)))
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	if byte(x) != 0 {
		return ErrDetected
	}
	for i := 1; i < c.p; i++ {
		rows := &c.chunkRows[i]
		srow := &c.synRows[i]
		acc := synSweep(rows, srow, p0, 0)
		acc = synSweep(rows, srow, p1, acc)
		acc = synSweep(rows, srow, p2, acc)
		if acc != 0 {
			return ErrDetected
		}
	}
	return nil
}

// xorFold XORs pc into the running syndrome-0 accumulator a word at a
// time (trailing bytes land in the low lanes; XOR commutes, so lane
// placement is irrelevant once the caller folds the word to one byte).
func xorFold(pc []byte, x uint64) uint64 {
	j := 0
	for ; j+8 <= len(pc); j += 8 {
		x ^= binary.LittleEndian.Uint64(pc[j:])
	}
	var b byte
	for ; j < len(pc); j++ {
		b ^= pc[j]
	}
	return x ^ uint64(b)
}

// synSweep advances syndrome accumulator acc across pc: eight bytes per
// step through the chunk tables (rows[m-1] multiplies by alpha^(i*m)),
// byte-wise through srow for the remainder. Exactly equal to eight
// byte-wise Horner steps by linearity of the field multiply.
func synSweep(rows *[8][256]byte, srow *[256]byte, pc []byte, acc byte) byte {
	j := 0
	for ; j+8 <= len(pc); j += 8 {
		ck := pc[j : j+8 : j+8]
		acc = rows[7][acc] ^ rows[6][ck[0]] ^ rows[5][ck[1]] ^ rows[4][ck[2]] ^
			rows[3][ck[3]] ^ rows[2][ck[4]] ^ rows[1][ck[5]] ^ rows[0][ck[6]] ^ ck[7]
	}
	for ; j < len(pc); j++ {
		acc = srow[acc] ^ pc[j]
	}
	return acc
}

// Correct performs full correction decoding in place. It returns the
// number of byte errors corrected, or ErrUncorrectable when the error
// pattern exceeds the code's correction capability (cw is then left
// unmodified). This is the decode mode conventional systems — and
// Hetero-DMR's original blocks — use. It panics if len(cw) != k+p.
func (c *Code) Correct(cw []byte) (int, error) {
	if len(cw) != c.k+c.p {
		panic(fmt.Sprintf("rs: Correct with %d bytes, want %d", len(cw), c.k+c.p))
	}
	syn, bad := c.syndromes(cw)
	if !bad {
		return 0, nil
	}
	// Berlekamp-Massey: find the error locator polynomial sigma
	// (ascending-degree, sigma[0]=1).
	sigma := berlekampMassey(syn)
	nerr := gf256.PolyDeg(sigma)
	if nerr <= 0 || nerr > c.p/2 {
		return 0, ErrUncorrectable
	}
	// Chien search: roots of sigma are X_j^-1 where X_j = alpha^(position).
	n := c.k + c.p
	positions := make([]int, 0, nerr)
	for l := 0; l < n; l++ {
		// Position l is the power of the polynomial term: cw index
		// idx = n-1-l carries coefficient of x^l.
		xInv := gf256.Exp((255 - l) % 255)
		if gf256.PolyEval(sigma, xInv) == 0 {
			positions = append(positions, l)
		}
	}
	if len(positions) != nerr {
		return 0, ErrUncorrectable
	}
	// Forney's algorithm for error magnitudes.
	// Error evaluator omega(x) = [S(x) * sigma(x)] mod x^p.
	omega := gf256.PolyMul(syn, sigma)
	if len(omega) > c.p {
		omega = omega[:c.p]
	}
	// Formal derivative of sigma: odd-degree terms only.
	deriv := make([]byte, 0, len(sigma))
	for i := 1; i < len(sigma); i += 2 {
		// d/dx of sigma_i x^i = i*sigma_i x^(i-1); over GF(2) the factor i
		// is 1 for odd i and 0 for even i, leaving the odd coefficients at
		// even positions.
		d := make([]byte, i)
		d[i-1] = sigma[i]
		deriv = gf256.PolyAdd(deriv, d)
	}
	magnitudes := make([]byte, nerr)
	for j, l := range positions {
		xInv := gf256.Exp((255 - l) % 255)
		den := gf256.PolyEval(deriv, xInv)
		if den == 0 {
			return 0, ErrUncorrectable
		}
		// e_j = X_j * omega(X_j^-1) / sigma'(X_j^-1) for fcr=0 codes.
		num := gf256.Mul(gf256.Exp(l%255), gf256.PolyEval(omega, xInv))
		magnitudes[j] = gf256.Div(num, den)
	}
	// Apply the corrections to a scratch copy, then verify.
	fixed := make([]byte, n)
	copy(fixed, cw)
	for j, l := range positions {
		fixed[n-1-l] ^= magnitudes[j]
	}
	if _, stillBad := c.syndromes(fixed); stillBad {
		return 0, ErrUncorrectable
	}
	copy(cw, fixed)
	return nerr, nil
}

// berlekampMassey computes the error locator polynomial from the syndrome
// vector, ascending-degree with constant term 1.
func berlekampMassey(syn []byte) []byte {
	sigma := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	b := byte(1)
	for i := 0; i < len(syn); i++ {
		// Discrepancy.
		d := syn[i]
		for j := 1; j <= l; j++ {
			if j < len(sigma) && i-j >= 0 {
				d ^= gf256.Mul(sigma[j], syn[i-j])
			}
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= i {
			tmp := append([]byte(nil), sigma...)
			// sigma = sigma - (d/b) x^m prev
			coef := gf256.Div(d, b)
			shift := make([]byte, m+len(prev))
			for j, pj := range prev {
				shift[m+j] = gf256.Mul(coef, pj)
			}
			sigma = gf256.PolyAdd(sigma, shift)
			prev = tmp
			l = i + 1 - l
			b = d
			m = 1
		} else {
			coef := gf256.Div(d, b)
			shift := make([]byte, m+len(prev))
			for j, pj := range prev {
				shift[m+j] = gf256.Mul(coef, pj)
			}
			sigma = gf256.PolyAdd(sigma, shift)
			m++
		}
	}
	return sigma
}
