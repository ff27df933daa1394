package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one
// generator action. Spans of one request share Req; Parent links a call
// to the span that caused it.
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Req    uint64    `json:"req,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

// spanRecorder keeps spans in memory until the run ends. Safe for
// concurrent use.
type spanRecorder struct {
	mu    sync.Mutex
	spans []span
	ids   uint64
	reqs  uint64
	epoch time.Time
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// newID reserves a span ID, for parents whose children finish first.
func (r *spanRecorder) newID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	return r.ids
}

// nextReq reserves a request ID.
func (r *spanRecorder) nextReq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// add records s, assigning an ID when it has none, and returns the ID.
func (r *spanRecorder) add(s span) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.ids++
		s.ID = r.ids
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ns"`
	Self  float64 `json:"self_ns"`
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, keyed by span ID.
func selfTimes(spans []span) map[uint64]time.Duration {
	type iv struct{ a, b time.Time }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self := s.End.Sub(s.Start)
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		// Merge overlapping children, clipped to the parent.
		var curA, curB time.Time
		open := false
		for _, c := range ivs {
			a, b := c.a, c.b
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if !b.After(a) {
				continue
			}
			if open && !a.After(curB) {
				if b.After(curB) {
					curB = b
				}
				continue
			}
			if open {
				self -= curB.Sub(curA)
			}
			curA, curB, open = a, b, true
		}
		if open {
			self -= curB.Sub(curA)
		}
		out[s.ID] = self
	}
	return out
}

// summary aggregates total and self time per span name.
func (r *spanRecorder) summary() []spanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	by := map[string]*spanStat{}
	for _, s := range r.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += float64(s.End.Sub(s.Start))
		st.Self += float64(self[s.ID])
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write saves every span as one JSON line (times in ns since the
// recorder started, with self time), followed by nothing else.
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := selfTimes(r.spans)
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		rec := struct {
			span
			StartNs int64 `json:"start_ns"`
			EndNs   int64 `json:"end_ns"`
			SelfNs  int64 `json:"self_ns"`
		}{s, int64(s.Start.Sub(r.epoch)), int64(s.End.Sub(r.epoch)), int64(self[s.ID])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
