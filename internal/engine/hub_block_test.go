package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ptrack/internal/condition"
	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
)

// pushAllBlocks pushes a whole trace through PushBlock in chunks drawn
// from rng, resuming from the accepted count on full-queue drops so
// every sample lands exactly once, in order.
func pushAllBlocks(t testing.TB, h *Hub, id string, tr *trace.Trace, rng *rand.Rand) {
	t.Helper()
	samples := tr.Samples
	for len(samples) > 0 {
		n := 1 + rng.Intn(2*stream.BlockSamples)
		if n > len(samples) {
			n = len(samples)
		}
		block := samples[:n]
		for len(block) > 0 {
			acc, err := h.PushBlock(id, block)
			block = block[acc:]
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("session %s: %v", id, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
		samples = samples[n:]
	}
}

// TestHubPushBlockEquivalence drives concurrent sessions through the
// hub's block ingestion path (PushBlock enqueue + the run loop's greedy
// block drain) and requires the exact event sequence of a serial
// per-sample tracker from every session. The traced inputs put half the
// sessions under a sampled trace, with and without conditioning: tracing
// must not change a session's events, and the span ring must account
// for every traced block (checkTracedBlocks). Run under -race (make
// race) this also exercises the block path for data races.
func TestHubPushBlockEquivalence(t *testing.T) {
	tr := walkingTrace(t, 30)
	for _, tc := range []struct {
		name              string
		traced, condition bool
	}{
		{"plain", false, false},
		{"traced", true, false},
		{"traced+condition", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hubConfig(tr)
			if tc.condition {
				cfg.Stream.Condition = &condition.StreamConfig{}
			}
			var ring *tracing.Ring
			var root tracing.SpanContext
			if tc.traced {
				ring = tracing.NewRing(traceRingSize)
				tracer := tracing.New(tracing.Config{Service: "test", SampleRate: 1, Exporter: ring})
				cfg.Hooks = obs.NewHooks(obs.NewRegistry()).WithTracer(tracer)
				_, span := tracer.Start(context.Background(), "test.root")
				root = span.Context()
				defer span.End()
			}
			events := testHubPushBlockEquivalence(t, tr, cfg, root)
			if tc.traced {
				checkTracedBlocks(t, ring, len(tr.Samples), events, tc.condition)
			}
		})
	}
}

// equivSessions is how many concurrent sessions the equivalence test
// runs.
const equivSessions = 8

// traceRingSize holds every span of a traced equivalence run.
const traceRingSize = 1 << 17

// tracedSession reports whether session i runs under the sampled trace
// (when there is one): the even half of the sessions.
func tracedSession(i int) bool { return i%2 == 0 }

// startTracedSession opens a session empty and sets its trace before the
// first push, so every block it drains is traced.
func startTracedSession(h *Hub, id string, sc tracing.SpanContext) {
	h.mu.Lock()
	h.startSessionLocked(id)
	h.mu.Unlock()
	h.SetSessionTrace(id, sc)
}

// testHubPushBlockEquivalence runs the sessions and returns the number of
// events each delivered.
func testHubPushBlockEquivalence(t *testing.T, tr *trace.Trace, cfg HubConfig, root tracing.SpanContext) int {
	ref, err := stream.New(cfg.Stream)
	if err != nil {
		t.Fatal(err)
	}
	var want []stream.Event
	for _, s := range tr.Samples {
		want = append(want, ref.Push(s)...)
	}
	want = append(want, ref.Flush()...)
	if len(want) == 0 {
		t.Fatal("reference tracker emitted no events")
	}

	var mu sync.Mutex
	events := make(map[string][]stream.Event)
	cfg.OnEvent = func(session string, ev stream.Event, _ tracing.SpanContext) {
		mu.Lock()
		events[session] = append(events[session], ev)
		mu.Unlock()
	}
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = equivSessions
	if root.IsValid() {
		for i := 0; i < sessions; i++ {
			if tracedSession(i) {
				startTracedSession(h, fmt.Sprintf("user-%d", i), root)
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pushAllBlocks(t, h, fmt.Sprintf("user-%d", i), tr, rand.New(rand.NewSource(int64(i))))
		}(i)
	}
	wg.Wait()
	h.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(events) != sessions {
		t.Fatalf("events from %d sessions, want %d", len(events), sessions)
	}
	for id, got := range events {
		if len(got) != len(want) {
			t.Fatalf("session %s: %d events, serial tracker %d", id, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("session %s: event %d diverges:\n got %+v\nwant %+v", id, i, got[i], want[i])
			}
		}
	}
	return len(want)
}

// checkTracedBlocks audits the spans of a traced equivalence run: every
// traced session's tracker.push spans cover each pushed sample exactly
// once in blocks of at most BlockSamples, each of their events has an
// event.emit span whose parent is a tracker.push span, and with
// conditioning on each tracker.push span has exactly one condition child
// that fits inside it. It returns how many event.emit spans hang under a
// final flush's tracker.push span (samples = 0).
func checkTracedBlocks(t *testing.T, ring *tracing.Ring, samples, events int, conditioned bool) (flushEmits int) {
	t.Helper()
	if ring.Len() >= traceRingSize {
		t.Fatalf("span ring full (%d spans): the audit would miss overwritten spans", ring.Len())
	}
	spans := ring.Spans()
	pushes := make(map[tracing.SpanID]*tracing.Span)
	covered := make(map[string]int64)
	for _, s := range spans {
		if s.Name() != "tracker.push" {
			continue
		}
		pushes[s.Context().SpanID] = s
		n := s.AttrInt("samples")
		if n < 0 || n > stream.BlockSamples {
			t.Errorf("tracker.push span covers %d samples, want 0..%d", n, stream.BlockSamples)
		}
		covered[s.AttrStr("session")] += n
	}
	conds := make(map[tracing.SpanID]int)
	emits := make(map[string]int)
	for _, s := range spans {
		switch s.Name() {
		case "event.emit":
			emits[s.AttrStr("session")]++
			switch p := pushes[s.Parent()]; {
			case p == nil:
				t.Errorf("event.emit span's parent %s is not a tracker.push span", s.Parent())
			case p.AttrInt("samples") == 0:
				flushEmits++
			}
		case "condition":
			parent := pushes[s.Parent()]
			if parent == nil {
				t.Errorf("condition span's parent %s is not a tracker.push span", s.Parent())
				continue
			}
			conds[s.Parent()]++
			if s.Duration() > parent.Duration() {
				t.Errorf("condition span %v outlasts its tracker.push span %v", s.Duration(), parent.Duration())
			}
		}
	}
	for i := 0; i < equivSessions; i++ {
		id := fmt.Sprintf("user-%d", i)
		wantSamples, wantEvents := int64(0), 0
		if tracedSession(i) {
			wantSamples, wantEvents = int64(samples), events
		}
		if covered[id] != wantSamples {
			t.Errorf("session %s: tracker.push spans cover %d samples, want %d", id, covered[id], wantSamples)
		}
		if emits[id] != wantEvents {
			t.Errorf("session %s: %d event.emit spans, want %d", id, emits[id], wantEvents)
		}
	}
	wantConds := 0
	if conditioned {
		wantConds = 1
	}
	for id := range pushes {
		if conds[id] != wantConds {
			t.Errorf("tracker.push span %s has %d condition children, want %d", id, conds[id], wantConds)
		}
	}
	return flushEmits
}

// TestHubTracedFlushSpans pins the final flush of traced sessions: the
// events Flush releases (a 3 s walk leaves one cycle for it) are emitted
// under a tracker.push span with samples = 0. (The 30 s equivalence
// trace leaves Flush nothing to release.)
func TestHubTracedFlushSpans(t *testing.T) {
	tr := walkingTrace(t, 3)
	ring := tracing.NewRing(traceRingSize)
	tracer := tracing.New(tracing.Config{Service: "test", SampleRate: 1, Exporter: ring})
	cfg := hubConfig(tr)
	cfg.Hooks = obs.NewHooks(obs.NewRegistry()).WithTracer(tracer)
	_, root := tracer.Start(context.Background(), "test.root")
	defer root.End()
	events := testHubPushBlockEquivalence(t, tr, cfg, root.Context())
	if checkTracedBlocks(t, ring, len(tr.Samples), events, false) == 0 {
		t.Error("no event.emit span under a flush's tracker.push span")
	}
}

// TestHubPushBlockQueueFull pins the partial-acceptance contract: a
// block larger than the queue's free space reports how many samples
// were enqueued and ErrQueueFull for the dropped tail.
func TestHubPushBlockQueueFull(t *testing.T) {
	tr := walkingTrace(t, 5)
	cfg := hubConfig(tr)
	cfg.QueueSize = 4
	// Stall the drain goroutine behind a slow OnEvent? Simpler: fill the
	// queue faster than it drains by pushing one big block; with a queue
	// of 4 the tracker cannot possibly drain a few thousand samples
	// instantly, so acceptance must fall short at least once.
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	acc, err := h.PushBlock("s", tr.Samples)
	if err == nil {
		t.Fatalf("PushBlock accepted all %d samples through a queue of 4", len(tr.Samples))
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("PushBlock error = %v, want ErrQueueFull", err)
	}
	if acc < 1 || acc >= len(tr.Samples) {
		t.Fatalf("accepted %d of %d, want a partial prefix", acc, len(tr.Samples))
	}

	// Resuming from the accepted count eventually lands every sample.
	rest := tr.Samples[acc:]
	for len(rest) > 0 {
		n, err := h.PushBlock("s", rest)
		rest = rest[n:]
		if err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if err != nil {
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Empty blocks are a no-op even for unknown sessions.
	if n, err := h.PushBlock("nope", nil); n != 0 || err != nil {
		t.Fatalf("empty PushBlock = (%d, %v), want (0, nil)", n, err)
	}
}
