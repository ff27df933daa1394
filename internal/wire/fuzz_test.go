package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

// FuzzDecodeSamples feeds arbitrary input to both sample decoders
// (mirroring FuzzReadCSVLenient for the CSV path): they must never
// panic or loop, and anything the NDJSON decoder accepts must
// round-trip bit-identically through AppendSample. The first seed byte
// selects the format so one corpus exercises both.
func FuzzDecodeSamples(f *testing.F) {
	sample := trace.Sample{
		T: 0.01, Accel: vecmath.Vec3{X: 1.25, Y: -9.81, Z: 0.5},
		Gyro: vecmath.Vec3{X: 0.1, Y: 0.2, Z: -0.3}, Yaw: 1.5,
	}
	nd := AppendSample(nil, sample)
	bin := AppendSampleBinary(AppendBinaryHeader(nil), sample)

	f.Add(append([]byte{'j'}, nd...))
	f.Add(append([]byte{'b'}, bin...))
	// Truncated frames and magic.
	f.Add(append([]byte{'b'}, bin[:len(bin)-3]...))
	f.Add([]byte{'b', 'P', 'T'})
	f.Add(append([]byte{'b'}, "XXXX0000000000000000"...))
	// NaN/Inf fields: representable in both formats; the decoders pass
	// them through (admission policy lives in the server, not the codec).
	f.Add(append([]byte{'j'}, `{"t":0,"ax":NaN,"ay":+Inf,"az":-Inf,"yaw":0}`+"\n"...))
	f.Add(append([]byte{'b'}, AppendSampleBinary(AppendBinaryHeader(nil),
		trace.Sample{T: math.NaN(), Yaw: math.Inf(1)})...))
	// Oversized line.
	f.Add(append([]byte{'j'}, `{"t":`+strings.Repeat("9", MaxLineLen+1)+"}\n"...))
	// Structural junk.
	f.Add([]byte{'j', '{', '}'})
	f.Add(append([]byte{'j'}, `{"t":1,"t":2}`+"\n"...))
	f.Add(append([]byte{'j'}, "\n\n\n"...))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ct := ContentTypeNDJSON
		if in[0] == 'b' {
			ct = ContentTypeBinary
		}
		body := in[1:]
		d := NewDecoder(bytes.NewReader(body), ct)
		var decoded []trace.Sample
		for {
			s, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // rejected cleanly; nothing more to check
			}
			decoded = append(decoded, s)
			if len(decoded) > len(body) {
				t.Fatalf("decoder produced more samples (%d) than input bytes (%d)", len(decoded), len(body))
			}
		}
		// Accepted input must round-trip through the canonical encoding.
		var buf []byte
		if ct == ContentTypeBinary {
			buf = AppendBinaryHeader(nil)
			for _, s := range decoded {
				buf = AppendSampleBinary(buf, s)
			}
		} else {
			for _, s := range decoded {
				buf = AppendSample(buf, s)
			}
		}
		back := NewDecoder(bytes.NewReader(buf), ct)
		for i, want := range decoded {
			got, err := back.Next()
			if err != nil {
				t.Fatalf("re-decoding accepted sample %d: %v", i, err)
			}
			if !sameSample(got, want) {
				t.Fatalf("sample %d round trip mismatch:\n got %+v\nwant %+v", i, got, want)
			}
		}
	})
}

// sameSample compares bit-for-bit so NaN payloads count as equal.
func sameSample(a, b trace.Sample) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.T, b.T) && eq(a.Yaw, b.Yaw) &&
		eq(a.Accel.X, b.Accel.X) && eq(a.Accel.Y, b.Accel.Y) && eq(a.Accel.Z, b.Accel.Z) &&
		eq(a.Gyro.X, b.Gyro.X) && eq(a.Gyro.Y, b.Gyro.Y) && eq(a.Gyro.Z, b.Gyro.Z)
}

// FuzzParseNumber: for any input, parseNumber and strconv.ParseFloat
// agree on the delimited token — accept/reject and every bit of the
// value — and fastFloat agrees with strconv on any prefix it claims.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1.5", "2.7962235248090943", "-0.004372739143334291",
		"1.2345678901234567e-05", "9007199254740993", "12345678901234567890",
		"4.9e-324", "2.2250738585072011e-308", "1e400", "1e-400",
		"1.2345678901234567e64", "1.2345678901234567e65",
		"1.", ".5", "5e", "1e+", "--1", "+3", "0x1p-2", "1_0", "NaN", "Inf",
		"1.5,", "7}", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkNumber(t, in)
	})
}

// FuzzParseEventJSON: the SSE payload parser must never panic, and
// whatever it accepts must re-encode deterministically.
func FuzzParseEventJSON(f *testing.F) {
	f.Add(`{"t":1.5,"label":"walking","steps_added":2,"strides":[0.7],"total_steps":4,"offset":0.03}`)
	f.Add(`{"t":0,"label":"interference","steps_added":0,"total_steps":0,"offset":0}`)
	f.Add(`{}`)
	f.Add(`{"label":"sprinting"}`)
	f.Fuzz(func(t *testing.T, in string) {
		ev, err := ParseEventJSON([]byte(in))
		if err != nil {
			return
		}
		enc := AppendEvent(nil, ev)
		back, err := ParseEventJSON(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding %s: %v", enc, err)
		}
		if len(back.Strides) == 0 && len(ev.Strides) == 0 {
			back.Strides, ev.Strides = nil, nil
		}
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("event not stable: %+v vs %+v", back, ev)
		}
	})
}
