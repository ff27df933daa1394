package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ptrack"
	"ptrack/internal/server"
	"ptrack/internal/wire"
)

// TestReferenceDecidedAt pins the event epoch: pushing one sample at a
// time, each event's decidable index is the sample after which the
// tracker first returns it, and the per-sample events equal what the
// served block path emits.
func TestReferenceDecidedAt(t *testing.T) {
	p, err := newPlan(workload{slots: 1, sources: 1, binary: true}, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	samples := p.slots[0][0].samples(12)
	ref, err := reference(samples)
	if err != nil {
		t.Fatal(err)
	}
	o, err := ptrack.NewOnline(sampleRate)
	if err != nil {
		t.Fatal(err)
	}
	var blockEvents []ptrack.Event
	var evs []ptrack.Event
	for b := 0; b < len(samples); b += ptrack.BlockSamples {
		evs = o.PushBlock(samples[b:b+ptrack.BlockSamples], evs[:0])
		for _, ev := range evs {
			blockEvents = append(blockEvents, copyEvent(ev))
		}
	}
	blockEvents = append(blockEvents, o.Flush()...)
	if len(ref) == 0 || len(ref) != len(blockEvents) {
		t.Fatalf("reference has %d events, block path %d", len(ref), len(blockEvents))
	}
	last := -1
	for i, r := range ref {
		if !sameEvent(r.ev, blockEvents[i]) {
			t.Fatalf("event %d: reference %+v, block path %+v", i, r.ev, blockEvents[i])
		}
		if r.decidedAt >= 0 && (r.decidedAt < last || r.decidedAt >= len(samples)) {
			t.Fatalf("event %d decided at %d (previous %d)", i, r.decidedAt, last)
		}
		if r.decidedAt >= 0 {
			last = r.decidedAt
		}
	}
}

// TestEventCheckInProcess drives a small in-process server through the
// generator and requires the delivered events to match the reference,
// then corrupts one delivered event and requires the check to fail.
func TestEventCheckInProcess(t *testing.T) {
	srv, err := server.New(server.Config{
		SampleRate: sampleRate,
		Options:    []ptrack.Option{ptrack.WithObserver(ptrack.NewObserver(ptrack.NewMetrics()))},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	w := workload{name: "check", slots: 3, watched: 2, binary: false, speedup: 200, replicas: 1,
		churn: [2]int{3, 6}, sources: 2}
	seconds := 1200 * time.Millisecond
	interval := time.Duration(w.intervalSeconds() * float64(time.Second))
	ticks := 2 + int((warmup+seconds)/interval) + 1
	p, err := newPlan(w, 5, ticks)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGen(p, []string{ts.URL}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wctx, stopWatchers := context.WithCancel(ctx)
	var watchers sync.WaitGroup
	for slot := 0; slot < w.watched; slot++ {
		watchers.Add(1)
		go func(slot int) {
			defer watchers.Done()
			g.watcher(wctx, slot)
		}(slot)
	}
	defer func() {
		stopWatchers()
		watchers.Wait()
	}()
	if err := g.setupPushes(ctx); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	win := window{t0: t0, start: t0.Add(warmup), end: t0.Add(warmup + seconds)}
	win.mid = win.end
	if err := g.run(ctx, g.senders[0], win); err != nil {
		t.Fatal(err)
	}
	if err := g.finish(ctx); err != nil {
		t.Fatal(err)
	}
	ended := 0
	for _, wt := range g.watches {
		if len(wt.epoch) == 0 {
			continue
		}
		ended++
		select {
		case <-wt.ended:
		case <-ctx.Done():
			t.Fatal("watched stream did not end")
		}
	}
	if ended <= w.watched {
		t.Fatalf("only %d watched sessions ran; want churn to start more", ended)
	}
	wr := &windowResult{}
	if err := checkEvents(g, win, wr); err != nil {
		t.Fatal(err)
	}
	if wr.refEvents == 0 || wr.delivered != wr.refEvents || wr.event[0].n == 0 {
		t.Fatalf("checked %d of %d reference events, %d latencies", wr.delivered, wr.refEvents, wr.event[0].n)
	}

	// Every way a delivered stream can differ from the reference must
	// fail the check: a wrong step total, a lost last event and a lost
	// event of End's flush.
	flushDropped := false
	for s, wt := range g.watches {
		if len(wt.events) == 0 {
			continue
		}
		ref, err := reference(s.samples(wt.pushed))
		if err != nil {
			t.Fatal(err)
		}
		kept := append([]ptrack.Event(nil), wt.events...)
		keptRecv := append([]time.Time(nil), wt.recv...)
		mutations := map[string]func(){
			"wrong total": func() { wt.events[len(wt.events)/2].TotalSteps++ },
			"last dropped": func() {
				wt.events, wt.recv = wt.events[:len(wt.events)-1], wt.recv[:len(wt.recv)-1]
			},
		}
		for i, r := range ref {
			if r.decidedAt < 0 {
				flushDropped = true
				mutations["flush event dropped"] = func() {
					wt.events = append(append([]ptrack.Event(nil), kept[:i]...), kept[i+1:]...)
					wt.recv = append(append([]time.Time(nil), keptRecv[:i]...), keptRecv[i+1:]...)
				}
				break
			}
		}
		for name, mutate := range mutations {
			mutate()
			if err := checkEvents(g, win, &windowResult{}); err == nil || !strings.Contains(err.Error(), "reference") {
				t.Fatalf("%s: %s passed the check: %v", s.id, name, err)
			}
			wt.events = append(wt.events[:0:0], kept...)
			wt.recv = append(wt.recv[:0:0], keptRecv...)
		}
	}
	if !flushDropped {
		t.Fatal("no watched session had an event decided by End's flush")
	}
	if err := checkEvents(g, win, &windowResult{}); err != nil {
		t.Fatalf("restored events: %v", err)
	}
}

// TestWatcherFailureEndsChurnedRun serves a gap notice on every event
// stream. The watcher of a churned slot gives up on its first session,
// and the sender must then fail when the slot's next session is due,
// not wait for a stream that will never open.
func TestWatcherFailureEndsChurnedRun(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet:
			rw.Header().Set("Content-Type", wire.ContentTypeSSE)
			rw.WriteHeader(http.StatusOK)
			fmt.Fprintf(rw, "event: %s\ndata: {\"dropped\":1}\n\n", wire.SSEEventGap)
		case r.Method == http.MethodDelete:
			rw.WriteHeader(http.StatusNoContent)
		default:
			_, _ = io.Copy(io.Discard, r.Body)
			rw.WriteHeader(http.StatusOK)
		}
	}))
	defer ts.Close()

	w := workload{name: "gap", slots: 1, watched: 1, binary: true, speedup: 400, replicas: 1,
		churn: [2]int{2, 3}, sources: 1}
	interval := time.Duration(w.intervalSeconds() * float64(time.Second))
	seconds := time.Second
	p, err := newPlan(w, 7, 2+int((warmup+seconds)/interval))
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGen(p, []string{ts.URL}, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.watcher(ctx, 0)
	}()
	defer func() { <-done }()
	if err := g.setupPushes(ctx); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	win := window{t0: t0, start: t0, mid: t0.Add(seconds), end: t0.Add(seconds)}
	err = g.run(ctx, g.senders[0], win)
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), wire.SSEEventGap) {
		t.Fatalf("run = %v (context %v), want the watcher's gap error", err, ctx.Err())
	}
}
