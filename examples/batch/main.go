// Batch & sessions: the two concurrent deployment shapes. First a day's
// worth of recordings is fanned across the worker pool (results in input
// order, failures isolated per trace), then a session hub tracks several
// users' live streams at once through one shared observer.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"

	"ptrack"
)

func main() {
	user := ptrack.DefaultSimProfile()

	// --- Batch: many recordings, one pool -------------------------------
	scripts := [][]ptrack.SimSegment{
		{{Activity: ptrack.ActivityWalking, Duration: 60}},
		{{Activity: ptrack.ActivityWalking, Duration: 30}, {Activity: ptrack.ActivityEating, Duration: 30}},
		{{Activity: ptrack.ActivityStepping, Duration: 60}},
		{{Activity: ptrack.ActivityJogging, Duration: 45}},
	}
	traces := make([]*ptrack.Trace, 0, len(scripts)+1)
	for i, script := range scripts {
		cfg := ptrack.DefaultSimConfig()
		cfg.Seed = int64(i + 1)
		rec, err := ptrack.Simulate(user, cfg, script)
		if err != nil {
			log.Fatal(err)
		}
		traces = append(traces, rec.Trace)
	}
	traces = append(traces, nil) // a corrupt recording: isolated, not fatal

	pool, err := ptrack.NewPool(4, ptrack.WithProfile(user.ArmLength, user.LegLength, user.K))
	if err != nil {
		log.Fatal(err)
	}
	items, err := pool.Process(context.Background(), traces)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d traces across %d workers:\n", len(traces), pool.Workers())
	for i, it := range items {
		switch {
		case errors.Is(it.Err, ptrack.ErrEmptyTrace):
			fmt.Printf("  trace %d: skipped (empty)\n", i)
		case it.Err != nil:
			fmt.Printf("  trace %d: %v\n", i, it.Err)
		default:
			fmt.Printf("  trace %d: %3d steps  %6.1f m\n", i, it.Result.Steps, it.Result.Distance)
		}
	}

	// --- Sessions: many live streams, one hub ---------------------------
	rec, err := ptrack.Simulate(user, ptrack.DefaultSimConfig(),
		[]ptrack.SimSegment{{Activity: ptrack.ActivityWalking, Duration: 30}})
	if err != nil {
		log.Fatal(err)
	}
	var mu sync.Mutex
	steps := make(map[string]int)
	hub, err := ptrack.NewSessionHub(rec.Trace.SampleRate,
		ptrack.WithEventHook(func(session string, ev ptrack.Event, _ ptrack.SpanContext) {
			mu.Lock()
			steps[session] += ev.StepsAdded
			mu.Unlock()
		}))
	if err != nil {
		log.Fatal(err)
	}

	users := []string{"alice", "bob", "carol"}
	var wg sync.WaitGroup
	for _, id := range users {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, s := range rec.Trace.Samples {
				for {
					err := hub.Push(id, s)
					if err == nil {
						break
					}
					if !errors.Is(err, ptrack.ErrSessionQueueFull) {
						log.Fatal(err)
					}
					// Backpressure: the real caller would pace the device.
				}
			}
		}(id)
	}
	wg.Wait()
	fmt.Printf("\nhub tracked %d concurrent sessions:\n", hub.ActiveSessions())
	hub.Close() // flush trailing events

	mu.Lock()
	defer mu.Unlock()
	ids := make([]string, 0, len(steps))
	for id := range steps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("  %-6s %d steps\n", id, steps[id])
	}
}
