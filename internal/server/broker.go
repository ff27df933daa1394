package server

import (
	"sync"
	"time"

	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
)

// broker fans classification events out to the SSE subscribers of each
// session. Events arrive pre-encoded (one payload shared read-only by
// every subscriber) from the hub's per-session goroutines; subscribers
// drain bounded buffers, so a slow SSE client can fall behind and lose
// events (counted, and announced to the client via `gap` SSE events)
// but can never stall the pipeline or other clients.
type broker struct {
	mu        sync.Mutex
	feeds     map[string][]*subscriber
	moving    map[string]string // session → new owner URL, consumed by endSession
	parked    map[string]*parkedFeed
	lastSweep time.Time
	buf       int
	hooks     *obs.Hooks
	closed    bool
}

// parkTTL is how long a resumed session's parked events wait for a
// subscriber, counted from the resume and again from the session's
// end. A reconnecting client takes seconds; the bound only reclaims
// feeds nobody comes back for.
const parkTTL = time.Minute

// parkedFeed holds what a session resumed from a snapshot published
// while no subscriber was attached: its client's SSE stream is usually
// still reconnecting (a `moved` notice from the old owner, a restart).
// The first subscriber receives it all, so the migration costs the
// client nothing, or at least nothing unannounced. msgs keeps the
// newest events, as many as a subscriber buffer holds; older ones are
// counted in dropped and announced as a gap ahead of the first.
type parkedFeed struct {
	msgs    []eventMsg
	dropped int64
	ended   bool
	moved   string
	since   time.Time
}

// eventMsg is one published event: the encoded payload plus the span
// context of the event.emit span it was born under (zero when the
// session's request was unsampled), so the SSE handler can parent its
// sse.deliver span on the pipeline. gap, when nonzero, is the
// subscription's cumulative dropped-event count at publish time: the
// SSE handler announces it (as a `gap` SSE event) before the payload,
// so the client learns about the loss on the next event it does
// receive instead of silently believing its stream complete. A message
// with a nil payload is a pure gap notice (emitted when a session ends
// with unannounced drops outstanding).
type eventMsg struct {
	payload []byte
	sc      tracing.SpanContext
	gap     int64
}

// subscriber is one attached SSE stream. Its channel carries encoded
// event payloads and is closed — after the trailing events — when the
// session ends or the broker shuts down. dropped counts every event
// lost to a full buffer (cumulative, what gap notices carry); pending
// counts the losses not yet announced to the client.
type subscriber struct {
	session string
	ch      chan eventMsg
	dropped int64
	pending int64
	// moved, when non-empty at channel close, tells the SSE handler the
	// session's shard migrated to the named replica (its base URL): the
	// stream ends with a `moved` event instead of `end`, so the client
	// reconnects rather than believing the session over. Written under
	// the broker lock strictly before close(ch); the handler reads it
	// only after the close, so the channel orders the accesses.
	moved string
}

func newBroker(buf int, hooks *obs.Hooks) *broker {
	if buf <= 0 {
		buf = 256
	}
	return &broker{
		feeds:  make(map[string][]*subscriber),
		moving: make(map[string]string),
		parked: make(map[string]*parkedFeed),
		buf:    buf,
		hooks:  hooks,
	}
}

// subscribe attaches a new subscriber to a session's event feed. The
// session need not exist yet — subscribing before the first sample is
// the normal order for a client that wants every event. A parked feed
// (see resume) is handed to the subscriber first: its events fill the
// buffer, the first carrying the parked overflow as its gap, and if
// the session already ended the subscriber comes back closed, ready to
// deliver the backlog and the end. Returns nil after the broker closed
// (the caller turns that into a 503).
func (b *broker) subscribe(session string) *subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	sub := &subscriber{session: session, ch: make(chan eventMsg, b.buf)}
	b.hooks.EventStreamOpened()
	if p := b.parked[session]; p != nil {
		delete(b.parked, session)
		sub.dropped = p.dropped
		b.hooks.EventsDropped(int(p.dropped))
		for i, msg := range p.msgs {
			if i == 0 {
				msg.gap = p.dropped
			}
			sub.ch <- msg // len(p.msgs) <= b.buf: never blocks
		}
		if p.ended {
			b.finishLocked(sub, p.moved)
			return sub
		}
	}
	b.feeds[session] = append(b.feeds[session], sub)
	return sub
}

// resume notes that the hub just restored the session from a stored
// snapshot. With no subscriber attached, the session's events are
// parked for the first one instead of being discarded, so a client
// whose stream reattaches after the first pushes — or after the
// session already ended — still sees every event, or a gap notice for
// what did not fit. Called on the session's goroutine before it emits
// anything.
func (b *broker) resume(session string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.sweepLocked(now)
	if b.closed || len(b.feeds[session]) > 0 {
		return
	}
	if p := b.parked[session]; p != nil {
		// Evicted and resumed again before anyone subscribed: keep the
		// backlog, the session is live again.
		p.ended, p.moved, p.since = false, "", now
		return
	}
	b.parked[session] = &parkedFeed{since: now}
}

// sweepLocked drops parked feeds older than parkTTL, at most twice per
// TTL.
func (b *broker) sweepLocked(now time.Time) {
	if now.Sub(b.lastSweep) < parkTTL/2 {
		return
	}
	b.lastSweep = now
	for session, p := range b.parked {
		if now.Sub(p.since) > parkTTL {
			delete(b.parked, session)
		}
	}
}

// unsubscribe detaches sub (idempotent; unknown subscribers are a
// no-op, e.g. when the session ended concurrently).
func (b *broker) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.feeds[sub.session]
	for i, s := range subs {
		if s == sub {
			subs[i] = subs[len(subs)-1]
			subs = subs[:len(subs)-1]
			if len(subs) == 0 {
				delete(b.feeds, sub.session)
			} else {
				b.feeds[sub.session] = subs
			}
			b.hooks.EventStreamClosed()
			return
		}
	}
}

// publish delivers one encoded event — tagged with its emitting span's
// context — to every subscriber of the session. Full subscriber buffers
// drop the event for that subscriber only; the first delivery that
// succeeds after a drop carries the subscription's cumulative dropped
// count, which the SSE handler announces as a `gap` event ahead of the
// payload. Called from the hub's per-session goroutines.
func (b *broker) publish(session string, payload []byte, sc tracing.SpanContext) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.feeds[session]
	if len(subs) == 0 {
		if p := b.parked[session]; p != nil {
			msg := eventMsg{payload: payload, sc: sc}
			if len(p.msgs) < b.buf {
				p.msgs = append(p.msgs, msg)
			} else {
				copy(p.msgs, p.msgs[1:])
				p.msgs[len(p.msgs)-1] = msg
				p.dropped++
			}
		}
		return
	}
	for _, sub := range subs {
		msg := eventMsg{payload: payload, sc: sc}
		if sub.pending > 0 {
			msg.gap = sub.dropped
		}
		select {
		case sub.ch <- msg:
			sub.pending = 0
		default:
			sub.dropped++
			sub.pending++
			b.hooks.EventsDropped(1)
		}
	}
}

// endSession closes every subscriber of the session. Buffered events
// stay readable; the closed channel is the end-of-stream marker the SSE
// handler turns into an `end` event. A subscriber with unannounced
// drops gets a best-effort pure gap notice first, so losses at the tail
// of a session are reported too (only a still-full buffer — which the
// end event could not enter either — loses the notice). A parked feed
// records the end for the subscriber still to come. Called by the
// hub's OnSessionEnd, i.e. strictly after the session's trailing events
// were published.
func (b *broker) endSession(session string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.feeds[session]
	delete(b.feeds, session)
	moved := b.moving[session]
	delete(b.moving, session)
	for _, sub := range subs {
		b.finishLocked(sub, moved)
	}
	now := time.Now()
	b.sweepLocked(now)
	if p := b.parked[session]; p != nil {
		p.ended, p.moved, p.since = true, moved, now
	}
}

// finishLocked closes one subscriber, after a best-effort pure gap
// notice for drops it has not been told about yet.
func (b *broker) finishLocked(sub *subscriber, moved string) {
	if sub.pending > 0 {
		select {
		case sub.ch <- eventMsg{gap: sub.dropped}:
			sub.pending = 0
		default:
		}
	}
	sub.moved = moved
	close(sub.ch)
	b.hooks.EventStreamClosed()
}

// markMoved records that the session's next end is a shard migration to
// owner (a base URL), not a real end: its subscribers' streams will
// close with a `moved` event so clients reconnect. Called by the
// cluster migration path strictly before the hub eviction that
// triggers endSession.
func (b *broker) markMoved(session, owner string) {
	b.mu.Lock()
	b.moving[session] = owner
	b.mu.Unlock()
}

// close ends every feed and refuses new subscribers — the last step of
// the drain sequence, after the hub has flushed.
func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	clear(b.parked)
	for session, subs := range b.feeds {
		delete(b.feeds, session)
		for _, sub := range subs {
			close(sub.ch)
			b.hooks.EventStreamClosed()
		}
	}
}
