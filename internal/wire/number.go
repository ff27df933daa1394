package wire

import (
	"encoding/binary"
	"fmt"
)

// NDJSON number parsing. Every numeric field of a sample line goes
// through parseNumber, which must return exactly what
// strconv.ParseFloat returns for the same token — same bits, same
// accept/reject decision — because the wire contract is that a trace
// survives the text format bit-identical. The fast path below handles
// the tokens AppendSample and ordinary JSON producers emit; every other
// token is handed to strconv unchanged.

// maxMantDigits is how many significant decimal digits fit a uint64
// mantissa without overflow (10^19 < 2^64), as in strconv.
const maxMantDigits = 19

// parseNumber parses the number token that opens b — everything up to
// the first ',', '}', ' ', '\t' or '\r', as scanNumber delimits it —
// with strconv.ParseFloat semantics and returns its value and length.
// Plain decimal tokens take fastFloat's single pass; anything fastFloat
// declines (NaN, Inf, hex floats, underscores, more than 19 significant
// digits, exponents outside the power-of-ten table, malformed tokens)
// is parsed by strconv, so accepted values, rejected inputs and error
// classes are strconv's.
func parseNumber(b []byte) (v float64, n int, err error) {
	if v, n, ok := fastFloat(b); ok && (n == len(b) || isNumberDelim(b[n])) {
		return v, n, nil
	}
	num, err := scanNumber(b)
	if err != nil {
		return 0, 0, err
	}
	v, err = parseFloat(num)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad number %q", ErrFormat, num)
	}
	return v, len(num), nil
}

// isNumberDelim reports whether c ends a number token.
func isNumberDelim(c byte) bool {
	return c == ',' || c == '}' || c == ' ' || c == '\t' || c == '\r'
}

// fastFloat parses the plain decimal number
// [+-]digits[.digits][(e|E)[+-]digits] at the start of b in one pass
// and returns its value and length. It converts exactly — Clinger's
// fast path when the mantissa and exponent are small, Eisel–Lemire
// otherwise — and reports ok=false when the prefix is not such a number
// or neither algorithm can decide it; the caller then defers to
// strconv. Whatever follows the number is the caller's concern.
func fastFloat(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	var (
		man   uint64 // first maxMantDigits significant digits
		nd    int    // digits folded into man
		trunc bool   // a nonzero digit did not fit man
	)
	// Integer part; leading zeros carry no significance.
	start := i
	for i < len(b) && b[i] == '0' {
		i++
	}
	sig := i
	i, man, nd, trunc = accumulateDigits(b, i, man, nd, trunc)
	// dp places the decimal point relative to the first significant
	// digit: value = 0.d1d2d3… × 10^dp.
	dp := i - sig
	sawDigits := i > start
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if dp == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
			dp = frac - i
		}
		i, man, nd, trunc = accumulateDigits(b, i, man, nd, trunc)
		sawDigits = sawDigits || i > frac
	}
	if !sawDigits {
		return 0, 0, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(b) || b[i]-'0' > 9 {
			return 0, 0, false
		}
		e := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // strconv's cap: far outside any table either way
				e = e*10 + int(b[i]-'0')
			}
		}
		dp += esign * e
	}
	if trunc {
		return 0, 0, false
	}
	// A zero mantissa comes out as ±0 whatever the exponent: Clinger's
	// path or eiselLemire64's first check.
	exp10 := dp - nd
	if f, ok := atof64exact(man, exp10, neg); ok {
		return f, i, true
	}
	if f, ok := eiselLemire64(man, exp10, neg); ok {
		return f, i, true
	}
	return 0, 0, false
}

// accumulateDigits consumes the run of decimal digits at b[i:], folding
// them into man while it holds fewer than maxMantDigits digits and
// setting trunc for any nonzero digit past that. Eight digits at a time
// are folded in one step (SWAR) while they fit.
func accumulateDigits(b []byte, i int, man uint64, nd int, trunc bool) (int, uint64, int, bool) {
	for nd+8 <= maxMantDigits && len(b)-i >= 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if !isEightDigits(v) {
			break
		}
		man = man*100000000 + eightDigits(v)
		nd += 8
		i += 8
	}
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if nd < maxMantDigits {
			man = man*10 + uint64(d)
			nd++
		} else if d != 0 {
			trunc = true
		}
	}
	return i, man, nd, trunc
}

// isEightDigits reports whether all eight bytes of the little-endian
// word v are ASCII digits: each byte's high nibble is 3, and adding 6
// does not carry into it.
func isEightDigits(v uint64) bool {
	return (v&0xF0F0F0F0F0F0F0F0)|(((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4) == 0x3333333333333333
}

// eightDigits returns the value of the eight ASCII digits in the
// little-endian word v (first digit in the low byte), combining digit
// pairs, then pairs of pairs, then the two halves.
func eightDigits(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8                                // 2-digit values in bytes 0, 2, 4, 6
	v = (v&0x000000FF000000FF)*(100+1000000<<32) + // 4-digit values in the
		((v>>16)&0x000000FF000000FF)*(1+10000<<32) // upper halves, combined
	return v >> 32
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// atof64exact is strconv's Clinger fast path: when the mantissa fits
// 52 bits and 10^|exp| is exact in a float64 too, one correctly
// rounded multiply or divide gives the correctly rounded result.
func atof64exact(mantissa uint64, exp int, neg bool) (f float64, ok bool) {
	if mantissa>>52 != 0 {
		return
	}
	f = float64(mantissa)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	// Exact integers are <= 10^15; exact powers of ten are <= 10^22.
	case exp > 0 && exp <= 15+22:
		// A big exponent on few digits can move zeros into the integer.
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return
}
