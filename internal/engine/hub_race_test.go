package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptrack/internal/obs"
)

// TestHubLRUEvictionOrder pins the MaxSessions eviction policy: at the
// cap, a push for a new session evicts the longest-idle session, whose
// trailing events are flushed and whose OnSessionEnd fires before the
// new session is admitted — the session limit never rejects.
func TestHubLRUEvictionOrder(t *testing.T) {
	tr := walkingTrace(t, 2)

	clock := time.Unix(0, 0)
	ended := make(chan string, 8)
	cfg := hubConfig(tr)
	cfg.MaxSessions = 2
	cfg.IdleTimeout = -1 // no janitor; only LRU eviction may remove sessions
	cfg.OnSessionEnd = func(id string) { ended <- id }
	cfg.now = func() time.Time { return clock }
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	s := tr.Samples[0]
	push := func(id string, at time.Duration) {
		t.Helper()
		clock = time.Unix(0, 0).Add(at)
		if err := pushOne(h, id, s); err != nil {
			t.Fatalf("push %s: %v", id, err)
		}
	}
	waitEnd := func(want string) {
		t.Helper()
		select {
		case got := <-ended:
			if got != want {
				t.Fatalf("evicted session = %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("session %q was not ended", want)
		}
	}

	push("a", 1*time.Second)
	push("b", 2*time.Second)
	if got := h.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}

	// "a" is the idlest: admitting "c" must evict it.
	push("c", 3*time.Second)
	waitEnd("a")
	if got := h.Len(); got != 2 {
		t.Fatalf("Len after eviction = %d, want 2", got)
	}

	// Re-admitting "a" must now evict "b" (idlest of {b@2s, c@3s}).
	push("a", 4*time.Second)
	waitEnd("b")
	if got := h.Len(); got != 2 {
		t.Fatalf("Len after second eviction = %d, want 2", got)
	}
}

// TestHubConcurrentEvictionAndDropAccounting hammers a capped hub from
// concurrent pushers (more distinct sessions than MaxSessions, tiny
// queues) and checks the accounting invariants that back the serving
// layer's backpressure responses: every ErrQueueFull seen by a caller
// is counted by the drop metric, the live-session cap holds throughout,
// and after Close the active-sessions gauge returns to zero with
// OnSessionEnd fired exactly once per opened session. Run under -race
// via `make race`, this doubles as the hub's data-race regression test.
func TestHubConcurrentEvictionAndDropAccounting(t *testing.T) {
	tr := walkingTrace(t, 5)

	reg := obs.NewRegistry()
	hooks := obs.NewHooks(reg)
	var sessionEnds atomic.Int64
	cfg := hubConfig(tr)
	cfg.Hooks = hooks
	cfg.MaxSessions = 4
	cfg.QueueSize = 8 // small enough that pushers outrun the DSP
	cfg.IdleTimeout = -1
	cfg.OnSessionEnd = func(string) { sessionEnds.Add(1) }
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const pushers = 16
	var wg sync.WaitGroup
	var callerDrops atomic.Int64
	capViolations := make(chan int, 1)
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, s := range tr.Samples {
				switch err := pushOne(h, id, s); {
				case err == nil:
				case errors.Is(err, ErrQueueFull):
					callerDrops.Add(1)
				default:
					t.Errorf("session %s: %v", id, err)
					return
				}
				if n := h.Len(); n > cfg.MaxSessions {
					select {
					case capViolations <- n:
					default:
					}
					return
				}
			}
		}(fmt.Sprintf("user-%d", i))
	}
	wg.Wait()
	select {
	case n := <-capViolations:
		t.Fatalf("live sessions reached %d, cap is %d", n, cfg.MaxSessions)
	default:
	}
	h.Close()

	dropped := reg.Counter("ptrack_session_dropped_samples_total", "")
	if got, want := int64(dropped.Value()), callerDrops.Load(); got != want {
		t.Errorf("drop counter = %d, want %d (one per ErrQueueFull)", got, want)
	}
	if callerDrops.Load() == 0 {
		t.Error("no queue-full drops observed; queue too large for this test to bite")
	}
	active := reg.Gauge("ptrack_sessions_active", "")
	if got := active.Value(); got != 0 {
		t.Errorf("active-sessions gauge = %v after Close, want 0", got)
	}
	if got := sessionEnds.Load(); got < int64(cfg.MaxSessions) {
		t.Errorf("OnSessionEnd fired %d times, want >= %d", got, cfg.MaxSessions)
	}

	// Post-Close pushes must fail closed, not hang or panic.
	if err := pushOne(h, "late", tr.Samples[0]); !errors.Is(err, ErrHubClosed) {
		t.Errorf("Push after Close = %v, want ErrHubClosed", err)
	}
}
