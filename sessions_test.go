package ptrack

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// pushRetry pushes one sample, retrying full-queue backpressure so the
// whole trace lands.
func pushRetry(t *testing.T, hub *SessionHub, id string, s Sample) {
	t.Helper()
	for {
		err := hub.Push(id, s)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrSessionQueueFull) {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSessionHubDurableAcrossRecycle proves the facade wiring end to
// end: a hub with a session store is closed mid-stream, a new hub on
// the same store finishes the trace, and the step totals continue
// instead of resetting.
func TestSessionHubDurableAcrossRecycle(t *testing.T) {
	tr := walkingTraces(t, 1, 30)[0]
	st := NewMemSessionStore()
	cut := len(tr.Samples) / 2

	var mu sync.Mutex
	var events []Event
	newHub := func() *SessionHub {
		hub, err := NewSessionHub(tr.SampleRate,
			WithSessionStore(st),
			WithEventHook(func(session string, ev Event, _ SpanContext) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}))
		if err != nil {
			t.Fatal(err)
		}
		return hub
	}

	hub := newHub()
	for _, s := range tr.Samples[:cut] {
		pushRetry(t, hub, "walker", s)
	}
	hub.Close()
	mu.Lock()
	firstGen := len(events)
	mu.Unlock()
	if firstGen == 0 {
		t.Fatal("no events before the recycle")
	}

	hub = newHub()
	for _, s := range tr.Samples[cut:] {
		pushRetry(t, hub, "walker", s)
	}
	hub.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(events) == firstGen {
		t.Fatal("no events after the recycle")
	}
	total, last := 0, 0
	for _, ev := range events {
		total += ev.StepsAdded
		if ev.TotalSteps < last {
			t.Fatalf("TotalSteps went backwards across recycle: %d after %d", ev.TotalSteps, last)
		}
		last = ev.TotalSteps
	}
	if total != last {
		t.Fatalf("sum of StepsAdded = %d but final TotalSteps = %d", total, last)
	}
}

// TestSessionHubFuncWrapper pins the deprecated positional signature to
// the behaviour of the redesigned constructor.
func TestSessionHubFuncWrapper(t *testing.T) {
	tr := walkingTraces(t, 1, 20)[0]
	var mu sync.Mutex
	steps := 0
	hub, err := NewSessionHubFunc(tr.SampleRate, func(session string, ev Event) {
		mu.Lock()
		steps += ev.StepsAdded
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		pushRetry(t, hub, "legacy", s)
	}
	hub.Close()
	mu.Lock()
	defer mu.Unlock()
	if steps == 0 {
		t.Fatal("deprecated wrapper delivered no events")
	}
}

// TestSessionHubPushAllocFree pins Push — a PushBlock of one sample —
// at zero allocations per call on a live session. AllocsPerRun floors
// the per-call average, so the session goroutine's occasional event and
// arena allocations do not count, while one allocation per Push would.
func TestSessionHubPushAllocFree(t *testing.T) {
	tr := walkingTraces(t, 1, 20)[0]
	hub, err := NewSessionHub(tr.SampleRate, WithSessionQueueSize(len(tr.Samples)+1))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Push("live", tr.Samples[0]); err != nil {
		t.Fatal(err)
	}
	i := 1
	allocs := testing.AllocsPerRun(len(tr.Samples)/2, func() {
		if err := hub.Push("live", tr.Samples[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("SessionHub.Push allocates %v times per call, want 0", allocs)
	}
}
