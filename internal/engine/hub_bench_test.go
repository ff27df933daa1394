package engine

import (
	"context"
	"testing"

	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/stream"
)

// benchHubPush streams a 60 s walking trace through one hub session in
// BlockSamples blocks via PushBlock, the path the server drives, and
// waits for the drain, so ns/sample covers the full asynchronous
// pipeline: queue hop, tracker DSP, and (when traced) one tracker.push
// span per drained block. The queue is sized past the trace so the
// pusher never spins on a full queue.
func benchHubPush(b *testing.B, hooks *obs.Hooks, sc tracing.SpanContext) {
	tr := walkingTrace(b, 60)
	cfg := HubConfig{
		Stream:    stream.Config{SampleRate: tr.SampleRate},
		QueueSize: len(tr.Samples) + 1,
		Hooks:     hooks,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := NewHub(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(tr.Samples); j += stream.BlockSamples {
			block := tr.Samples[j:min(j+stream.BlockSamples, len(tr.Samples))]
			if _, err := h.PushBlock("bench", block); err != nil {
				b.Fatal(err)
			}
			if j == 0 && sc.IsValid() {
				h.SetSessionTrace("bench", sc)
			}
		}
		h.End("bench")
		h.Close()
	}
	samples := len(tr.Samples)
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkHubPush is the tracing-overhead guard (see make bench-guard):
// "off" is the production default — no tracer attached — and must track
// the raw streaming front end (BENCH_stream.json) within the queue-hop
// allowance; "sampled" pays for span creation on every block and event
// and is gated by BENCH_trace.json's ceiling.
func BenchmarkHubPush(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchHubPush(b, nil, tracing.SpanContext{})
	})
	b.Run("sampled", func(b *testing.B) {
		ring := tracing.NewRing(0)
		tracer := tracing.New(tracing.Config{Service: "bench", SampleRate: 1, Exporter: ring})
		hooks := obs.NewHooks(obs.NewRegistry()).WithTracer(tracer)
		_, root := tracer.Start(context.Background(), "bench.root")
		defer root.End()
		benchHubPush(b, hooks, root.Context())
	})
}
