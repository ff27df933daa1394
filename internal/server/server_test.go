package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
)

// --- rate limiter ----------------------------------------------------

func TestRateLimiterRefillAndRetryAfter(t *testing.T) {
	clock := time.Unix(0, 0)
	l := newRateLimiter(2, 2, func() time.Time { return clock }) // 2 rps, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	ok, retry := l.allow("c")
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	// Empty bucket at 2 rps: next token in 500ms.
	if want := 500 * time.Millisecond; retry != want {
		t.Errorf("retryAfter = %v, want %v", retry, want)
	}

	clock = clock.Add(500 * time.Millisecond)
	if ok, _ := l.allow("c"); !ok {
		t.Error("request after refill interval denied")
	}

	// Distinct clients have independent buckets.
	if ok, _ := l.allow("other"); !ok {
		t.Error("fresh client denied while another is throttled")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	l := newRateLimiter(0, 0, nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatal("disabled limiter denied a request")
		}
	}
}

func TestRateLimiterSweepBoundsClients(t *testing.T) {
	clock := time.Unix(0, 0)
	l := newRateLimiter(10, 10, func() time.Time { return clock })
	l.max = 100

	// A scan of distinct client keys, each idle immediately: the table
	// must not exceed max + 1 (the newcomer that triggered the sweep is
	// admitted after eviction).
	for i := 0; i < 1000; i++ {
		clock = clock.Add(2 * time.Second) // past full refill => sweepable
		l.allow(string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)))
		if len(l.clients) > l.max+1 {
			t.Fatalf("client table grew to %d, cap %d", len(l.clients), l.max)
		}
	}
}

// TestRateLimiterFloodBounded is the spoofed-address-flood regression
// test: 50k distinct keys arriving between sweep opportunities must not
// grow the table past max. Overflow keys are denied (never inserted)
// with a conservative Retry-After, established clients keep service
// throughout, and once the flood's buckets idle to full refill a sweep
// frees slots for new keys again.
func TestRateLimiterFloodBounded(t *testing.T) {
	clock := time.Unix(0, 0)
	l := newRateLimiter(10, 10, func() time.Time { return clock })
	l.max = 1000

	if ok, _ := l.allow("established"); !ok {
		t.Fatal("first client denied")
	}

	// Flood: 50k unseen keys with no clock movement — no bucket can
	// refill, so nothing is evictable and the cap must hold by denial.
	var denials int
	for i := 0; i < 50000; i++ {
		ok, retry := l.allow(fmt.Sprintf("spoof-%d", i))
		if !ok {
			denials++
			if retry < sweepMinInterval {
				t.Fatalf("table-full denial promised Retry-After %v, want >= %v", retry, sweepMinInterval)
			}
		}
		if len(l.clients) > l.max {
			t.Fatalf("client table grew to %d under flood, cap %d", len(l.clients), l.max)
		}
	}
	if want := 50000 - (l.max - 1); denials != want {
		t.Errorf("denials = %d, want %d (everything past the cap)", denials, want)
	}
	if l.denied == 0 {
		t.Error("denied counter not incremented")
	}

	// The established client's bucket survived the flood: it still has
	// tokens and is served without interruption.
	if ok, _ := l.allow("established"); !ok {
		t.Error("established client denied during flood")
	}

	// Recently-active buckets are never evicted: advance past full
	// refill for the idle flood keys, but keep "established" active so
	// its last-touch stays fresh. The next unseen key sweeps the idle
	// buckets, gets in, and "established" still holds its bucket.
	clock = clock.Add(500 * time.Millisecond)
	l.allow("established") // refresh last-touch mid-interval
	clock = clock.Add(600 * time.Millisecond)
	ok, _ := l.allow("newcomer")
	if !ok {
		t.Fatal("unseen key denied after flood buckets became evictable")
	}
	if l.clients["established"] == nil {
		t.Error("recently-active client evicted by sweep")
	}
	if len(l.clients) > l.max {
		t.Errorf("table at %d after recovery sweep, cap %d", len(l.clients), l.max)
	}
}

// TestRateLimiterFloodConcurrent hammers the full-table path from many
// goroutines under -race: the invariant is purely that the table stays
// bounded and nothing races.
func TestRateLimiterFloodConcurrent(t *testing.T) {
	l := newRateLimiter(10, 10, nil) // real clock
	l.max = 500

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				l.allow(fmt.Sprintf("g%d-%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	l.mu.Lock()
	n := len(l.clients)
	l.mu.Unlock()
	if n > l.max {
		t.Fatalf("client table grew to %d under concurrent flood, cap %d", n, l.max)
	}
}

// --- broker ----------------------------------------------------------

// TestBrokerGapAfterOverflow pins the loss-signaling contract: after a
// slow subscriber overflows its buffer, the next message that does get
// through carries the cumulative dropped count (announced as a `gap`
// SSE event ahead of the payload), counts accumulate across repeated
// overflows, and a session ending with unannounced drops gets a pure
// gap notice before the close.
func TestBrokerGapAfterOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	b := newBroker(1, obs.NewHooks(reg))
	sub := b.subscribe("s")

	b.publish("s", []byte("e1"), tracing.SpanContext{}) // buffered
	b.publish("s", []byte("e2"), tracing.SpanContext{}) // dropped
	b.publish("s", []byte("e3"), tracing.SpanContext{}) // dropped

	if msg := <-sub.ch; string(msg.payload) != "e1" || msg.gap != 0 {
		t.Fatalf("pre-drop message = {%q gap=%d}, want {e1 gap=0}", msg.payload, msg.gap)
	}
	b.publish("s", []byte("e4"), tracing.SpanContext{})
	if msg := <-sub.ch; string(msg.payload) != "e4" || msg.gap != 2 {
		t.Fatalf("post-drop message = {%q gap=%d}, want {e4 gap=2}", msg.payload, msg.gap)
	}
	// Announced: the next delivery is clean again.
	b.publish("s", []byte("e5"), tracing.SpanContext{})
	if msg := <-sub.ch; msg.gap != 0 {
		t.Fatalf("message after announcement carries gap=%d, want 0", msg.gap)
	}

	// Second overflow: the count is cumulative, not per-gap.
	b.publish("s", []byte("e6"), tracing.SpanContext{}) // buffered
	b.publish("s", []byte("e7"), tracing.SpanContext{}) // dropped (3rd)
	if msg := <-sub.ch; string(msg.payload) != "e6" {
		t.Fatalf("read %q, want e6", msg.payload)
	}

	// Session ends while the e7 drop is unannounced: a pure gap notice
	// (nil payload, cumulative count) precedes the close.
	b.endSession("s")
	msg, open := <-sub.ch
	if !open {
		t.Fatal("channel closed before the tail gap notice")
	}
	if msg.payload != nil || msg.gap != 3 {
		t.Fatalf("tail notice = {%q gap=%d}, want {nil gap=3}", msg.payload, msg.gap)
	}
	if _, open := <-sub.ch; open {
		t.Fatal("channel still open after gap notice + close")
	}
	if got := reg.Counter("ptrack_http_events_dropped_total", "").Value(); got != 3 {
		t.Errorf("drop counter = %v, want 3", got)
	}
}

// TestBrokerParksResumedSession pins the reconnect contract after a
// migration or restart: a session resumed from a snapshot with no
// subscriber attached keeps its events (the newest buffer-full, the
// rest announced as a gap) and its end for the first subscriber, which
// also takes over the live feed; a fresh session, or one resumed under
// an attached subscriber, parks nothing.
func TestBrokerParksResumedSession(t *testing.T) {
	reg := obs.NewRegistry()
	b := newBroker(2, obs.NewHooks(reg))

	// Resumed, overflowed and ended (by a second migration) before the
	// client's stream reattached.
	b.resume("s")
	for _, e := range []string{"e1", "e2", "e3"} {
		b.publish("s", []byte(e), tracing.SpanContext{})
	}
	b.markMoved("s", "http://next")
	b.endSession("s")
	sub := b.subscribe("s")
	for i, want := range []eventMsg{{payload: []byte("e2"), gap: 1}, {payload: []byte("e3")}} {
		msg, open := <-sub.ch
		if !open || string(msg.payload) != string(want.payload) || msg.gap != want.gap {
			t.Fatalf("replayed message %d = {%q gap=%d open=%v}, want {%q gap=%d}",
				i, msg.payload, msg.gap, open, want.payload, want.gap)
		}
	}
	if _, open := <-sub.ch; open || sub.moved != "http://next" {
		t.Fatalf("after the backlog: open=%v moved=%q, want closed with moved=http://next", open, sub.moved)
	}
	if got := reg.Counter("ptrack_http_events_dropped_total", "").Value(); got != 1 {
		t.Errorf("drop counter = %v, want 1", got)
	}
	b.unsubscribe(sub) // what the SSE handler defers: a no-op here

	// Claimed while live: the backlog first, then live delivery.
	b.resume("l")
	b.publish("l", []byte("l1"), tracing.SpanContext{})
	live := b.subscribe("l")
	b.publish("l", []byte("l2"), tracing.SpanContext{})
	for _, want := range []string{"l1", "l2"} {
		if msg := <-live.ch; string(msg.payload) != want || msg.gap != 0 {
			t.Fatalf("read {%q gap=%d}, want {%s gap=0}", msg.payload, msg.gap, want)
		}
	}
	b.endSession("l")
	if _, open := <-live.ch; open {
		t.Fatal("live subscriber not closed by the session end")
	}

	// Fresh session: nothing parked. Resumed under an attached
	// subscriber: nothing parked either.
	b.publish("f", []byte("f1"), tracing.SpanContext{})
	attached := b.subscribe("a")
	b.resume("a")
	b.unsubscribe(attached)
	b.publish("a", []byte("a1"), tracing.SpanContext{})
	for _, id := range []string{"f", "a"} {
		if late := b.subscribe(id); len(late.ch) != 0 {
			t.Errorf("session %s: late subscriber got %d parked events, want 0", id, len(late.ch))
		}
	}
	if n := len(b.parked); n != 0 {
		t.Errorf("%d parked feeds left, want 0", n)
	}
}

func TestBrokerFanOutAndDrop(t *testing.T) {
	reg := obs.NewRegistry()
	hooks := obs.NewHooks(reg)
	b := newBroker(2, hooks)

	fast := b.subscribe("s")
	slow := b.subscribe("s")
	other := b.subscribe("t")

	payloads := [][]byte{[]byte("e1"), []byte("e2"), []byte("e3")}
	for _, p := range payloads {
		b.publish("s", p, tracing.SpanContext{})
		if len(fast.ch) > 0 {
			<-fast.ch // fast consumer keeps up
		}
	}
	// slow never drained its buffer of 2: one event dropped, for it only.
	if slow.dropped != 1 {
		t.Errorf("slow.dropped = %d, want 1", slow.dropped)
	}
	if fast.dropped != 0 {
		t.Errorf("fast.dropped = %d, want 0", fast.dropped)
	}
	if len(other.ch) != 0 {
		t.Error("subscriber of another session received events")
	}
	if got := reg.Counter("ptrack_http_events_dropped_total", "").Value(); got != 1 {
		t.Errorf("drop counter = %v, want 1", got)
	}

	// endSession closes channels but leaves buffered events readable.
	b.endSession("s")
	var got int
	for range slow.ch {
		got++
	}
	if got != 2 {
		t.Errorf("slow read %d buffered events after end, want 2", got)
	}
	if _, open := <-fast.ch; open {
		t.Error("fast channel still open after endSession")
	}

	// unsubscribe after endSession is a no-op, not a panic.
	b.unsubscribe(slow)

	b.close()
	if b.subscribe("u") != nil {
		t.Error("subscribe after close returned a subscriber")
	}
	if _, open := <-other.ch; open {
		t.Error("other session's channel still open after close")
	}
	if got := reg.Gauge("ptrack_http_event_streams_active", "").Value(); got != 0 {
		t.Errorf("active-streams gauge = %v after close, want 0", got)
	}
}

// TestSSEHandlerEmitsGapEvents drives the real SSE handler over
// loopback HTTP and proves a buffer overflow surfaces on the wire as an
// `event: gap` frame ahead of the next delivered payload. The handler
// is pinned mid-write deterministically: a multi-megabyte first payload
// blocks its response write while the test refuses to read, so
// subsequent publishes overflow the one-slot buffer on cue.
func TestSSEHandlerEmitsGapEvents(t *testing.T) {
	s, err := New(Config{SampleRate: 50, EventBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/sessions/s/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait for the handler's subscription to register.
	sub := func() *subscriber {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			s.broker.mu.Lock()
			subs := s.broker.feeds["s"]
			s.broker.mu.Unlock()
			if len(subs) == 1 {
				return subs[0]
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("subscriber never attached")
		return nil
	}()

	waitDrained := func() {
		deadline := time.Now().Add(5 * time.Second)
		for len(sub.ch) > 0 {
			if time.Now().After(deadline) {
				t.Fatal("handler never drained the subscriber channel")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Jam the handler: it picks this up immediately and blocks writing
	// 32 MB into a connection nobody reads.
	jam := bytes.Repeat([]byte{'x'}, 32<<20)
	s.broker.publish("s", jam, tracing.SpanContext{})
	waitDrained()
	s.broker.publish("s", []byte(`{"seq":2}`), tracing.SpanContext{}) // buffered
	s.broker.publish("s", []byte(`{"seq":3}`), tracing.SpanContext{}) // dropped
	s.broker.publish("s", []byte(`{"seq":4}`), tracing.SpanContext{}) // dropped
	s.broker.mu.Lock()
	dropped := sub.dropped
	s.broker.mu.Unlock()
	if dropped != 2 {
		t.Fatalf("forced %d drops, want 2 (is the write jam smaller than the socket buffers?)", dropped)
	}

	// Unjam: read the whole stream while the tail is published.
	type read struct {
		body []byte
		err  error
	}
	done := make(chan read, 1)
	go func() {
		b, err := io.ReadAll(resp.Body)
		done <- read{b, err}
	}()
	waitDrained() // seq 2 picked up => room for the gap-carrying delivery
	s.broker.publish("s", []byte(`{"seq":5}`), tracing.SpanContext{})
	waitDrained()
	s.broker.endSession("s")
	r := <-done
	if r.err != nil {
		t.Fatalf("reading stream: %v", r.err)
	}

	body := string(bytes.ReplaceAll(r.body, jam, []byte("<jam>")))
	wantOrder := []string{
		"data: <jam>",
		`data: {"seq":2}`,
		"event: gap\ndata: {\"dropped\":2}",
		`data: {"seq":5}`,
		"event: end",
	}
	pos := 0
	for _, want := range wantOrder {
		i := strings.Index(body[pos:], want)
		if i < 0 {
			t.Fatalf("stream missing %q after byte %d:\n%s", want, pos, body)
		}
		pos += i + len(want)
	}
	for _, lost := range []string{`{"seq":3}`, `{"seq":4}`} {
		if strings.Contains(body, lost) {
			t.Errorf("dropped payload %s reached the wire", lost)
		}
	}
}

// --- admission gate --------------------------------------------------

func TestAdmissionGate(t *testing.T) {
	s, err := New(Config{SampleRate: 50, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	req := httptest.NewRequest("POST", "/v1/sessions/s/samples", nil)
	req.RemoteAddr = "10.0.0.1:1234"

	release1, ok := s.admit(httptest.NewRecorder(), req, true)
	if !ok {
		t.Fatal("first request not admitted")
	}

	w := httptest.NewRecorder()
	if _, ok := s.admit(w, req, true); ok {
		t.Fatal("second request admitted past MaxInFlight=1")
	}
	if w.Code != 429 {
		t.Errorf("overload status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("overload response missing Retry-After")
	}

	// Ungated routes pass regardless of the gate.
	if _, ok := s.admit(httptest.NewRecorder(), req, false); !ok {
		t.Error("ungated request blocked by a full gate")
	}

	release1()
	release2, ok := s.admit(httptest.NewRecorder(), req, true)
	if !ok {
		t.Fatal("request after release not admitted")
	}
	release2()

	// Draining beats everything.
	s.draining.Store(true)
	w = httptest.NewRecorder()
	if _, ok := s.admit(w, req, true); ok {
		t.Fatal("request admitted while draining")
	}
	if w.Code != 503 {
		t.Errorf("draining status = %d, want 503", w.Code)
	}
	s.draining.Store(false)
}

func TestRetrySeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1200 * time.Millisecond, 2},
		{3 * time.Second, 3},
	}
	for _, c := range cases {
		if got := retrySeconds(c.d); got != c.want {
			t.Errorf("retrySeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
