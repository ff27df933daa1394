package wire

import (
	"bytes"
	"io"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
)

// Decode micro-benchmarks, gated by `make bench-guard` through
// cmd/benchjson: ingest decode must hold its ns/sample ceiling and stay
// alloc-free at steady state (allocs/op stays O(1) per pass while
// samples/op is in the thousands, so allocs-per-sample rounds to ~0).
// The payload is a real simulated walking trace — full-precision floats,
// the worst case for the text format — decoded through NextBlock in
// blocks of stream.BlockSamples, the way the server feeds its session
// hub.

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(),
		trace.ActivityWalking, 60)
	if err != nil {
		b.Fatal(err)
	}
	return rec.Trace
}

func benchDecode(b *testing.B, contentType string) {
	tr := benchTrace(b)
	var buf []byte
	if contentType == ContentTypeBinary {
		buf = AppendBinaryHeader(buf)
	}
	for _, s := range tr.Samples {
		if contentType == ContentTypeBinary {
			buf = AppendSampleBinary(buf, s)
		} else {
			buf = AppendSample(buf, s)
		}
	}
	r := bytes.NewReader(buf)
	d := NewDecoder(r, contentType)
	block := make([]trace.Sample, 0, stream.BlockSamples)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(buf)
		d.r, d.start, d.end, d.eof, d.magic = r, 0, 0, false, false
		d.n, d.readErr = 0, nil
		d.buf = d.buf[:0]
		for {
			var err error
			if block, err = d.NextBlock(block, stream.BlockSamples); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
	samples := len(tr.Samples)
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

func BenchmarkDecodeNDJSON(b *testing.B) { benchDecode(b, ContentTypeNDJSON) }
func BenchmarkDecodeBinary(b *testing.B) { benchDecode(b, ContentTypeBinary) }

// BenchmarkEncodeNDJSON bounds the client-side cost of the text format
// (not gated; the server never encodes samples).
func BenchmarkEncodeNDJSON(b *testing.B) {
	tr := benchTrace(b)
	buf := make([]byte, 0, 256*len(tr.Samples))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, s := range tr.Samples {
			buf = AppendSample(buf, s)
		}
	}
	samples := len(tr.Samples)
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}
