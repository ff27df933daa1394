package main

import (
	"fmt"
	"math/rand"

	"ptrack"
	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

// source is one simulated trace, looped with continuing timestamps
// (gaitsim.Replay) to the length a run needs. Request bodies are cut at
// whole-push boundaries of that stream and encoded before the run, so
// sessions that share a source share body bytes and the generator
// encodes nothing while it measures.
type source struct {
	samples []trace.Sample // the looped stream
	bodies  [][]byte       // bodies[g] carries samples [g·pushSamples, (g+1)·pushSamples)
}

// simulate builds n sources of at least pushes pushes each, walking
// and running alternately, each from a seed derived from the workload
// seed.
func simulate(n, pushes int, seed int64, binary bool) ([]*source, error) {
	acts := []trace.Activity{trace.ActivityWalking, trace.ActivityRunning}
	out := make([]*source, n)
	for i := range out {
		cfg := gaitsim.DefaultConfig()
		cfg.SampleRate = sampleRate
		cfg.Seed = seed*1000 + int64(i)
		rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), cfg, acts[i%len(acts)], 60)
		if err != nil {
			return nil, fmt.Errorf("simulate source %d: %w", i, err)
		}
		rep, err := gaitsim.NewReplay(rec.Trace)
		if err != nil {
			return nil, err
		}
		src := &source{samples: rep.Next(nil, pushes*pushSamples), bodies: make([][]byte, pushes)}
		for g := range src.bodies {
			src.bodies[g] = encodeBody(src.samples[g*pushSamples:(g+1)*pushSamples], binary)
		}
		out[i] = src
	}
	return out, nil
}

// encodeBody encodes samples in the wire framing the client package
// uses for pushes.
func encodeBody(samples []trace.Sample, binary bool) []byte {
	var b []byte
	if binary {
		b = wire.AppendBinaryHeader(make([]byte, 0, len(wire.BinaryMagic)+len(samples)*wire.BinaryFrameSize))
		for _, s := range samples {
			b = wire.AppendSampleBinary(b, s)
		}
		return b
	}
	for _, s := range samples {
		b = wire.AppendSample(b, s)
	}
	return b
}

// contentType is the push Content-Type of a framing.
func contentType(binary bool) string {
	if binary {
		return wire.ContentTypeBinary
	}
	return wire.ContentTypeNDJSON
}

// session is one session's planned stream: pushes [0, pushes) of its
// source starting at push offset off.
type session struct {
	id     string
	src    *source
	off    int
	pushes int
	// sampled[k] reports a sampled traceparent on push k (traced
	// workloads only).
	sampled []bool
}

func (s *session) body(k int) []byte { return s.src.bodies[s.off+k] }

// block returns the samples of push k of s.
func (s *session) block(k int) []trace.Sample {
	return s.src.samples[(s.off+k)*pushSamples : (s.off+k+1)*pushSamples]
}

// samples returns the session's first n pushes as one sample stream.
func (s *session) samples(n int) []trace.Sample {
	return s.src.samples[s.off*pushSamples : (s.off+n)*pushSamples]
}

// plan holds every input of one run, all derived from the seed before
// any server starts.
type plan struct {
	w       workload
	seed    int64
	sources []*source
	// slots[i] lists the sessions slot i runs, in order.
	slots [][]*session
}

// maxOffset bounds the seeded starting push of a session within its
// source, so sessions sharing a source are out of phase.
const maxOffset = 64

// newPlan draws the run's sessions for ticks pushes per slot. Each
// slot draws from its own generator, so a slot's sessions do not depend
// on how many the others need.
func newPlan(w workload, seed int64, ticks int) (*plan, error) {
	srcs, err := simulate(w.sources, maxOffset+ticks, seed, w.binary)
	if err != nil {
		return nil, err
	}
	p := &plan{w: w, seed: seed, sources: srcs, slots: make([][]*session, w.slots)}
	for slot := range p.slots {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(slot)))
		for used := 0; used < ticks; {
			s := &session{
				id:     fmt.Sprintf("pb-%d-%d-%d", seed, slot, len(p.slots[slot])),
				src:    srcs[rng.Intn(len(srcs))],
				off:    rng.Intn(maxOffset),
				pushes: ticks - used,
			}
			if c := w.churn; c[1] > 0 {
				s.pushes = min(s.pushes, c[0]+rng.Intn(c[1]-c[0]+1))
			}
			if w.sampledEvery > 0 {
				s.sampled = make([]bool, s.pushes)
				for k := range s.sampled {
					s.sampled[k] = k == 0 || rng.Intn(w.sampledEvery) == 0
				}
			}
			used += s.pushes
			p.slots[slot] = append(p.slots[slot], s)
		}
	}
	return p, nil
}

// refEvent is one reference event and the index of the sample whose
// push made it decidable (-1 for events of the final flush).
type refEvent struct {
	ev        ptrack.Event
	decidedAt int
}

// reference runs the server's default tracker over samples one at a
// time, recording which sample made each event decidable, then flushes
// as End does.
func reference(samples []trace.Sample) ([]refEvent, error) {
	o, err := ptrack.NewOnline(sampleRate)
	if err != nil {
		return nil, err
	}
	var out []refEvent
	for i, s := range samples {
		for _, ev := range o.Push(s) {
			out = append(out, refEvent{ev: copyEvent(ev), decidedAt: i})
		}
	}
	for _, ev := range o.Flush() {
		out = append(out, refEvent{ev: copyEvent(ev), decidedAt: -1})
	}
	return out, nil
}

// copyEvent detaches an event from tracker-owned storage.
func copyEvent(ev ptrack.Event) ptrack.Event {
	ev.Strides = append([]float64(nil), ev.Strides...)
	return ev
}

// sameEvent compares the fields a client acts on: cycle time, label,
// steps added and the running total.
func sameEvent(a, b ptrack.Event) bool {
	return a.T == b.T && a.Label == b.Label && a.StepsAdded == b.StepsAdded && a.TotalSteps == b.TotalSteps
}
