package wire

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkNumber asserts the bit-identity contract of parseNumber on in:
// it delimits the same token scanNumber does and agrees with
// strconv.ParseFloat on that token — accept/reject, and every bit of an
// accepted value (NaN payloads included). It also holds fastFloat to
// strconv on whatever prefix fastFloat claims, delimited or not.
func checkNumber(t *testing.T, in string) {
	t.Helper()
	tok := in
	if i := strings.IndexAny(in, ",} \t\r"); i >= 0 {
		tok = in[:i]
	}
	want, werr := strconv.ParseFloat(tok, 64)
	got, n, err := parseNumber([]byte(in))
	switch {
	case tok == "" || werr != nil:
		if err == nil {
			t.Fatalf("parseNumber(%q) = %v, want rejection (strconv: %v)", in, got, werr)
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("parseNumber(%q) error %v does not wrap ErrFormat", in, err)
		}
	case err != nil:
		t.Fatalf("parseNumber(%q): %v, want %v (strconv accepts %q)", in, err, want, tok)
	case math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("parseNumber(%q) = %v (%#x), strconv %v (%#x)",
			in, got, math.Float64bits(got), want, math.Float64bits(want))
	case n != len(tok):
		t.Fatalf("parseNumber(%q) consumed %d bytes, token is %q", in, n, tok)
	}
	if f, n, ok := fastFloat([]byte(in)); ok {
		want, werr := strconv.ParseFloat(in[:n], 64)
		if werr != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("fastFloat(%q) = %v from %q; strconv gives %v, %v", in, f, in[:n], want, werr)
		}
	}
}

// TestParseNumberCorpus pins the conversions where a fast float parser
// usually goes wrong: ties, long mantissas, the 2^53 boundary,
// subnormals, signed zero, overflow and underflow, the edges of the
// power-of-ten table, and the strconv forms that only the fallback
// handles.
func TestParseNumberCorpus(t *testing.T) {
	corpus := []string{
		// Plain values and the encoder's shortest forms.
		"0", "1", "-1", "1.5", "-9.81", "0.01", "1e22", "1e23", "123456789",
		"2.7962235248090943", "-0.004372739143334291", "0.0073120126917998185",
		"1.2345678901234567e-05", "-2.5E+3", "7e-3", "007", "00.5",
		// Halfway cases between adjacent float64s.
		"9007199254740993", "9007199254740995", "2.5", "0.5e1",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		"5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		// 17, 19 and 20 significant digits.
		"1.2345678901234567", "0.12345678901234567",
		"1234567890123456789", "1.234567890123456789", "9999999999999999999",
		"12345678901234567890", "1.2345678901234567890", "1.2345678901234567891",
		"10000000000000000000", "100000000000000000000000",
		// Subnormals and the normal/subnormal boundary.
		"4.9e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308",
		// Signed zero.
		"-0", "+0", "0.0", "-0.0", "-0e10", "0e99999", "-0.000e-400",
		// Overflow and underflow.
		"1e400", "-1e400", "1e-400", "-1e-400", "1.8e308", "1e308",
		// Just inside and just outside the 1e-64..1e64 table, with
		// mantissas big enough that Clinger's path does not apply.
		"1.2345678901234567e64", "1.2345678901234567e-64",
		"1.2345678901234567e65", "1.2345678901234567e-65",
		"12345678901234567e48", "12345678901234567e-81",
		"12345678901234567e47", "12345678901234567e-80",
		"1e64", "1e-64", "1e65", "1e-65",
		// Forms strconv accepts.
		"1.", ".5", "+3", "-.5", "1.e5", "1E5", "0x1p-2", "0X1P+2",
		"1_0", "1_000.5", "0x_1p0",
		"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-Infinity",
		// Forms strconv rejects.
		"", ".", "-", "+", "e5", ".e5", "5e", "1e+", "1e-", "--1", "+-1",
		"1__0", "_1", "1_", "1.5.3", "1e5e5", "1x", "0x", "NaNx",
		"Infx", "1e5.5", "١", "1\n",
		// Delimited tokens: the rest of the line is not the number's.
		"1.5,", "2}", "-3 ", "4\t", "5\r", "6,\"ax\":7", "}", ",", " 1",
	}
	for _, in := range corpus {
		checkNumber(t, in)
	}
}

// TestFastFloatCoversEncoderOutput guards the speed of the common case:
// the shortest forms AppendSample writes must be converted by fastFloat
// itself, not by the strconv fallback.
func TestFastFloatCoversEncoderOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		s := randSample(rng)
		for _, v := range []float64{s.T, s.Accel.X, s.Gyro.Z, s.Yaw} {
			tok := strconv.AppendFloat(nil, v, 'g', -1, 64)
			got, n, ok := fastFloat(tok)
			if !ok || n != len(tok) || got != v {
				t.Fatalf("fastFloat(%q) = %v, %d, %v; want %v from the fast path", tok, got, n, ok, v)
			}
		}
	}
}

// TestParseNumberRandom compares parseNumber with strconv on random
// float64s printed every way a JSON producer might print them.
func TestParseNumberRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		var v float64
		switch i % 3 {
		case 0: // any finite bit pattern
			v = math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		case 1: // sensor-like magnitudes
			v = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(60)-30)
		default: // short decimals and integers
			v = float64(rng.Int63n(2_000_000)-1_000_000) / math.Pow10(rng.Intn(8))
		}
		fmtc := []byte{'g', 'e', 'f', 'E'}[rng.Intn(4)]
		prec := rng.Intn(24) - 1 // -1 is shortest; up to 22 digits
		checkNumber(t, strconv.FormatFloat(v, fmtc, prec, 64))
	}
}

// TestPowersOfTenTable recomputes every row of detailedPowersOfTen with
// math/big: floor(10^e × 2^k), with k chosen so the value fills exactly
// 128 bits, split into {low, high} 64-bit words.
func TestPowersOfTenTable(t *testing.T) {
	if got, want := len(detailedPowersOfTen), detailedPowersOfTenMaxExp10-detailedPowersOfTenMinExp10+1; got != want {
		t.Fatalf("table has %d rows, want %d", got, want)
	}
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1))
	for e := detailedPowersOfTenMinExp10; e <= detailedPowersOfTenMaxExp10; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(e))), nil)
		var m *big.Int
		if e >= 0 {
			m = new(big.Int).Set(p)
			if shift := 128 - m.BitLen(); shift >= 0 {
				m.Lsh(m, uint(shift))
			} else {
				m.Rsh(m, uint(-shift))
			}
		} else {
			// 2^(127+bitlen(p)) / p lies in (2^127, 2^128).
			m = new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
			m.Quo(m, p)
		}
		if m.BitLen() != 128 {
			t.Fatalf("1e%d: recomputed mantissa has %d bits", e, m.BitLen())
		}
		lo := new(big.Int).And(m, mask).Uint64()
		hi := new(big.Int).Rsh(m, 64).Uint64()
		if row := detailedPowersOfTen[e-detailedPowersOfTenMinExp10]; row != [2]uint64{lo, hi} {
			t.Errorf("1e%d: table row {%#x, %#x}, math/big gives {%#x, %#x}", e, row[0], row[1], lo, hi)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestDecoderNumberForms decodes the rarer number forms through the
// NDJSON decoder — loose decimals the fast path takes, and forms only
// the strconv fallback handles — and each must come out as strconv
// reads it.
func TestDecoderNumberForms(t *testing.T) {
	for _, tok := range []string{
		"1.", ".5", "+3", "-0", "0x1p-2", "1_0", "1e-400", "4.9e-324",
		"2.2250738585072011e-308", "9007199254740993", "12345678901234567890",
		"NaN", "-Inf",
	} {
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatalf("strconv rejects %q: %v", tok, err)
		}
		got := decodeAll(t, []byte(`{"t":`+tok+`,"ax":`+tok+" }\n"), ContentTypeNDJSON)
		if len(got) != 1 {
			t.Fatalf("%q: decoded %d samples, want 1", tok, len(got))
		}
		for _, v := range []float64{got[0].T, got[0].Accel.X} {
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%q decoded as %v, strconv gives %v", tok, v, want)
			}
		}
	}
}
