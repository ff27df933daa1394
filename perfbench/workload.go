package main

import (
	"fmt"
	"sort"
)

// Sample rate of every simulated stream and of the served tracker (Hz),
// and the samples carried by one push request.
const (
	sampleRate  = 50.0
	pushSamples = 128
)

// Load-shape limits (see validity.go).
const (
	maxWatched = 16
)

// workload is one open-loop traffic mix. The offered rate is
// slots × sampleRate × speedup samples/s, fixed per workload.
type workload struct {
	name     string
	slots    int     // concurrently live sessions
	watched  int     // slots whose event stream is read and checked
	binary   bool    // PTB1 framing (else NDJSON)
	speedup  float64 // per-session rate as a multiple of real time
	replicas int     // ptrack-serve processes (2 = cluster mode)
	// sampledEvery > 0 sends a traceparent on every push, sampled on a
	// session's first push and on a seeded 1-in-sampledEvery of the rest.
	sampledEvery int
	// churn, when set, ends each session after a seeded number of
	// pushes in [churn[0], churn[1]] and starts a fresh ID in its slot.
	churn [2]int
	// sources is how many distinct simulated traces the sessions share.
	sources int
}

var workloads = map[string]workload{
	"live-binary": {
		slots: 16, watched: 16, binary: true, speedup: 384, replicas: 1, sources: 4,
	},
	"mixed-ndjson": {
		slots: 512, watched: 16, speedup: 5, replicas: 1, sampledEvery: 64, sources: 8,
	},
	"cluster-churn": {
		slots: 64, watched: 16, binary: true, speedup: 80, replicas: 2, churn: [2]int{16, 64}, sources: 4,
	},
}

func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return w, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	w.name = name
	return w, nil
}

// offeredSPS is the workload's offered rate in samples per second.
func (w workload) offeredSPS() float64 { return float64(w.slots) * sampleRate * w.speedup }

// interval is the per-session gap between scheduled pushes.
func (w workload) intervalSeconds() float64 { return pushSamples / (sampleRate * w.speedup) }
