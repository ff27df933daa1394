package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptrack"
	"ptrack/internal/cluster"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/wire"
)

// halfStats is what one sender measures over one half of the window
// (the traced run splits the window into an untraced and a traced half;
// the end-to-end run uses only the first).
type halfStats struct {
	ingest    hist // push acknowledged, from the scheduled send time
	ingestOwn hist // pushes that entered at the session's owner
	ingestHop hist // pushes that entered at a non-owner (cluster only)
	late      hist // generator's own schedule slip
	attempted int64
	failed    int64
	accepted  int64 // samples
	lastDone  time.Time
}

// sender is one push goroutine with its own single keep-alive
// connection to one entry replica.
type sender struct {
	base  string
	node  string // entry replica's node name (cluster only)
	hc    *http.Client
	conns *atomic.Int64   // connections dialled, shared by all senders
	slots []int           // owned slots, in phase order
	cur   map[int]*cursor // per owned slot: current session and next push
	stats [2]halfStats
	// replay lists the (session, push) pairs sent in the window, in
	// send order, for the traced run's layer replay.
	replay []pushRef
}

type pushRef struct {
	s   *session
	k   int
	due time.Time
}

// newPushClient returns an HTTP client held to one keep-alive
// connection, counting every dial into conns.
func newPushClient(conns *atomic.Int64) *http.Client {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conns.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// traceparent builds the W3C header for push k of a session: IDs are
// derived from the session and push, so the traced share and the trace
// IDs are fixed by the seed.
func traceparent(id string, k int, sampled bool) string {
	h := fnv.New128a()
	h.Write([]byte(id))
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], uint64(k))
	h.Write(kb[:])
	sum := h.Sum(nil)
	var sc tracing.SpanContext
	copy(sc.TraceID[:], sum)
	copy(sc.SpanID[:], sum[8:])
	sc.TraceID[0] |= 1
	sc.SpanID[0] |= 1
	if sampled {
		sc.Flags = tracing.FlagSampled
	}
	return tracing.FormatTraceparent(sc)
}

// push sends push k of s and reports whether the server accepted it.
func (sd *sender) push(ctx context.Context, w workload, s *session, k int) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		sd.base+"/v1/sessions/"+s.id+"/samples", bytes.NewReader(s.body(k)))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", contentType(w.binary))
	if w.sampledEvery > 0 {
		req.Header.Set(tracing.Header, traceparent(s.id, k, s.sampled[k]))
	}
	resp, err := sd.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return false, nil // transport failure: counted, not fatal
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// end sends DELETE for s, which returns once its trailing events are
// delivered.
func (sd *sender) end(ctx context.Context, s *session) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, sd.base+"/v1/sessions/"+s.id, nil)
	if err != nil {
		return err
	}
	resp, err := sd.hc.Do(req)
	if err != nil {
		return fmt.Errorf("end %s: %w", s.id, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("end %s: status %d", s.id, resp.StatusCode)
	}
	return nil
}

// watch is the event stream of one watched session.
type watch struct {
	attached chan struct{} // closed once the SSE stream is open
	ended    chan struct{} // closed after the `end` event (or failure)
	events   []ptrack.Event
	recv     []time.Time
	// attachErr is set before attached closes; err after ended closes.
	attachErr error
	err       error
	// epoch[k] is the latency epoch of push k (zero for the set-up
	// push); written by the sender before push k is sent.
	epoch  []time.Time
	pushed int // pushes acknowledged; short of len(epoch) after a refusal
}

func newWatch() *watch {
	return &watch{attached: make(chan struct{}), ended: make(chan struct{})}
}

// subscribe opens the session's SSE stream through base and returns the
// body once the server has attached the subscriber.
func subscribe(ctx context.Context, hc *http.Client, base, id string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sessions/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", wire.ContentTypeSSE)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("subscribe %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe %s: status %d", id, resp.StatusCode)
	}
	return resp.Body, nil
}

// read consumes one SSE stream until `end`, stamping each cycle event
// when its data line arrives. A gap notice is a loss and ends the read
// with an error.
func (wt *watch) read(body io.Reader, g *gen) error {
	br := bufio.NewReaderSize(body, 16<<10)
	event := ""
	for {
		line, err := br.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			return fmt.Errorf("event stream ended without end event: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			event = ""
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
			switch event {
			case wire.SSEEventEnd:
				return nil
			case wire.SSEEventGap, wire.SSEEventMoved:
				return fmt.Errorf("event stream: unexpected %q notice", event)
			}
		case bytes.HasPrefix(line, []byte("data: ")) && event == wire.SSEEventCycle:
			ev, err := wire.ParseEventJSON(line[len("data: "):])
			if err != nil {
				return err
			}
			wt.events = append(wt.events, ev)
			wt.recv = append(wt.recv, now)
			if g.rec != nil && now.UnixNano() >= g.tracedFrom.Load() {
				g.rec.add(span{Name: "gen.event_receipt", Start: now, End: time.Now()})
			}
		}
	}
}

// gen drives one run: the plan's sessions over the senders, watched
// slots read by one watcher goroutine each.
type gen struct {
	p       *plan
	w       workload
	ring    *cluster.Ring // cluster membership (nil outside cluster mode)
	senders []*sender
	conns   atomic.Int64
	sseHC   *http.Client
	phase   []time.Duration // per-slot offset within one interval
	watches map[*session]*watch
	rec     *spanRecorder // nil: no generator spans
	// tracedFrom is when generator spans start (Unix ns).
	tracedFrom atomic.Int64
}

// newGen builds senders and watch records for one server set-up. The
// slot phases come from the seed.
func newGen(p *plan, bases []string, nodes []cluster.Node, nSenders int, rec *spanRecorder) (*gen, error) {
	w := p.w
	g := &gen{p: p, w: w, rec: rec, watches: map[*session]*watch{}}
	g.tracedFrom.Store(math.MaxInt64)
	if len(nodes) > 0 {
		ring, err := cluster.NewRing(nodes, 0, 0)
		if err != nil {
			return nil, err
		}
		g.ring = ring
	}
	g.sseHC = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxWatched, DisableCompression: true}}
	interval := time.Duration(w.intervalSeconds() * float64(time.Second))
	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	g.phase = make([]time.Duration, w.slots)
	for i := range g.phase {
		g.phase[i] = time.Duration(rng.Int63n(int64(interval)))
	}
	for i := 0; i < nSenders; i++ {
		sd := &sender{base: bases[i%len(bases)], conns: &g.conns}
		if len(nodes) > 0 {
			sd.node = nodes[i%len(nodes)].Name
		}
		sd.hc = newPushClient(&g.conns)
		g.senders = append(g.senders, sd)
	}
	for slot := 0; slot < w.slots; slot++ {
		sd := g.senders[slot%nSenders]
		sd.slots = append(sd.slots, slot)
	}
	for _, sd := range g.senders {
		sd.cur = make(map[int]*cursor, len(sd.slots))
		for _, slot := range sd.slots {
			sd.cur[slot] = &cursor{gen: 0, k: 1} // tick 0 is the set-up push
		}
		sort.Slice(sd.slots, func(a, b int) bool { return g.phase[sd.slots[a]] < g.phase[sd.slots[b]] })
	}
	for slot := 0; slot < w.watched; slot++ {
		for _, s := range p.slots[slot] {
			g.watches[s] = newWatch()
		}
	}
	return g, nil
}

// watchBase is the entry replica a slot's watcher subscribes through:
// the same one its pushes enter at.
func (g *gen) watchBase(slot int) string { return g.senders[slot%len(g.senders)].base }

// watcher reads the event streams of one watched slot, session after
// session, until ctx ends. Each stream is opened before the session's
// first push is allowed. When a stream fails, the slot's later sessions
// are released with the error, so no sender waits for them forever.
func (g *gen) watcher(ctx context.Context, slot int) {
	sessions := g.p.slots[slot]
	for i, s := range sessions {
		wt := g.watches[s]
		body, err := subscribe(ctx, g.sseHC, g.watchBase(slot), s.id)
		if err != nil {
			wt.attachErr, wt.err = err, err
			close(wt.attached)
			close(wt.ended)
			g.abandon(sessions[i+1:], err)
			return
		}
		close(wt.attached)
		wt.err = wt.read(body, g)
		body.Close()
		close(wt.ended)
		if err := cmp.Or(wt.err, ctx.Err()); err != nil {
			g.abandon(sessions[i+1:], fmt.Errorf("event stream of %s failed: %w", s.id, err))
			return
		}
	}
}

// abandon releases watched sessions whose stream will never be opened.
func (g *gen) abandon(sessions []*session, err error) {
	for _, s := range sessions {
		wt := g.watches[s]
		wt.attachErr, wt.err = err, err
		close(wt.attached)
		close(wt.ended)
	}
}

// setupPushes sends every slot's first push (tick 0) as fast as the
// senders go, each watched one after its stream is attached.
func (g *gen) setupPushes(ctx context.Context) error {
	errs := make([]error, len(g.senders))
	var wg sync.WaitGroup
	for i, sd := range g.senders {
		wg.Add(1)
		go func(i int, sd *sender) {
			defer wg.Done()
			for _, slot := range sd.slots {
				s := g.p.slots[slot][0]
				if wt := g.watches[s]; wt != nil {
					select {
					case <-wt.attached:
					case <-ctx.Done():
						errs[i] = ctx.Err()
						return
					}
					if wt.attachErr != nil {
						errs[i] = wt.attachErr
						return
					}
					wt.epoch = append(wt.epoch, time.Time{})
				}
				ok, err := sd.push(ctx, g.w, s, 0)
				if err == nil && !ok {
					err = fmt.Errorf("set-up push of %s refused", s.id)
				}
				if err != nil {
					errs[i] = err
					return
				}
				if wt := g.watches[s]; wt != nil {
					wt.pushed = 1
				}
			}
		}(i, sd)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window is the measured schedule: push ticks start at t0, the first
// warm seconds are excluded, stats split at mid, and no push is sent
// whose scheduled time is at or after end.
type window struct {
	t0, start, mid, end time.Time
}

// cursor walks one slot's sessions tick by tick.
type cursor struct {
	gen, k int
}

// run sends the scheduled pushes of one sender. Each session that
// reaches its planned length is ended with DELETE right after its last
// push; the next session in the slot starts on the slot's next tick.
func (g *gen) run(ctx context.Context, sd *sender, win window) error {
	interval := time.Duration(g.w.intervalSeconds() * float64(time.Second))
	cur := sd.cur
	var prevDone time.Time
	for tick := 1; ; tick++ {
		for _, slot := range sd.slots {
			due := win.t0.Add(g.phase[slot] + time.Duration(tick-1)*interval)
			if !due.Before(win.end) {
				return nil
			}
			c := cur[slot]
			s := g.p.slots[slot][c.gen]
			if c.k == s.pushes {
				// Planned length reached: end it, move to the next.
				if err := g.endSession(ctx, sd, s, due.After(win.mid)); err != nil {
					return err
				}
				c.gen, c.k = c.gen+1, 0
				if c.gen >= len(g.p.slots[slot]) {
					return fmt.Errorf("slot %d ran out of planned sessions", slot)
				}
				s = g.p.slots[slot][c.gen]
			}
			wt := g.watches[s]
			if c.k == 0 && wt != nil {
				select {
				case <-wt.attached:
				case <-ctx.Done():
					return ctx.Err()
				}
				if wt.attachErr != nil {
					return wt.attachErr
				}
			}
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			// The latency epoch is the scheduled time plus the generator's
			// own slip (late timer wake-up), but not the wait for the
			// previous request on this connection: a server stall still
			// charges every push queued behind it.
			sendAt := time.Now()
			ready := due
			if prevDone.After(ready) {
				ready = prevDone
			}
			slip := max(0, sendAt.Sub(ready))
			epoch := due.Add(slip)
			if wt != nil {
				wt.epoch = append(wt.epoch, epoch)
			}
			ok, err := sd.push(ctx, g.w, s, c.k)
			if err != nil {
				return err
			}
			done := time.Now()
			if wt != nil && ok {
				wt.pushed++
			}
			if !due.Before(win.start) {
				half := 0
				if !due.Before(win.mid) {
					half = 1
				}
				st := &sd.stats[half]
				st.attempted++
				if ok {
					lat := float64(done.Sub(epoch))
					st.ingest.observe(lat)
					if g.ring != nil {
						if owner, _ := g.ring.Owner(s.id); owner.Name == sd.node {
							st.ingestOwn.observe(lat)
						} else {
							st.ingestHop.observe(lat)
						}
					}
					st.accepted += pushSamples
				} else {
					st.failed++
					st.ingest.fail()
				}
				st.late.observeDur(slip)
				st.lastDone = done
				if half == 0 {
					sd.replay = append(sd.replay, pushRef{s, c.k, due})
				}
				if g.rec != nil && half == 1 {
					g.rec.add(span{Name: "gen.push", Start: sendAt, End: done, Req: g.rec.nextReq()})
				}
			}
			prevDone = done
			c.k++
		}
	}
}

func (g *gen) endSession(ctx context.Context, sd *sender, s *session, traced bool) error {
	start := time.Now()
	err := sd.end(ctx, s)
	if g.rec != nil && traced {
		g.rec.add(span{Name: "gen.session_end", Start: start, End: time.Now(), Req: g.rec.nextReq()})
	}
	return err
}

// finish ends every slot's current session after the window, so the
// watched ones flush and close with `end`.
func (g *gen) finish(ctx context.Context) error {
	errs := make([]error, len(g.senders))
	var wg sync.WaitGroup
	for i, sd := range g.senders {
		wg.Add(1)
		go func(i int, sd *sender) {
			defer wg.Done()
			for _, slot := range sd.slots {
				c := sd.cur[slot]
				if c.k == 0 {
					continue // the previous session was ended on schedule
				}
				if err := sd.end(ctx, g.p.slots[slot][c.gen]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, sd)
	}
	wg.Wait()
	return errors.Join(errs...)
}
