package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ptrack"
	"ptrack/internal/cluster"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/store"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

// Replay bounds: the layer replay takes the window's first pushes in
// schedule order (so the sessions interleave as they did live) up to
// maxReplayPushes, and times at most maxStoreOps saves per store.
const (
	maxReplayPushes = 3000
	maxStoreOps     = 192
	storeRounds     = 3
	hubRounds       = 3
)

// checkpointEvery is the servers' -checkpoint interval in cluster mode.
const checkpointEvery = time.Second

// replaySet is the replay input: the pushes, and per session the
// samples it received in that order.
type replaySet struct {
	pushes   []pushRef
	sessions []*session
	streams  map[*session][]trace.Sample
	samples  int
}

func newReplaySet(refs []pushRef) *replaySet {
	if len(refs) > maxReplayPushes {
		refs = refs[:maxReplayPushes]
	}
	rs := &replaySet{pushes: refs, streams: map[*session][]trace.Sample{}}
	for _, r := range refs {
		if _, ok := rs.streams[r.s]; !ok {
			rs.sessions = append(rs.sessions, r.s)
		}
		rs.streams[r.s] = append(rs.streams[r.s], r.s.block(r.k)...)
		rs.samples += pushSamples
	}
	return rs
}

// ledger replays the window's inputs through each layer's public calls,
// one span per call, and returns the per-layer metrics with the residue
// that reconciles them with the server's measured CPU per sample.
func ledger(ctx context.Context, p *plan, wr *windowResult, e2e map[string]metric, dir string, rec *spanRecorder) (map[string]metric, error) {
	rs := newReplaySet(wr.replay)
	if rs.samples == 0 {
		return nil, errors.New("ledger: no pushes to replay")
	}
	m := map[string]metric{}

	// wire: decode the exact bodies.
	decNs, decAllocs, bytesPerSample, err := replayDecode(rs, p.w.binary, rec)
	if err != nil {
		return nil, err
	}
	m["wire.decode_ns_per_sample"] = metric{decNs, "ns"}
	m["wire.decode_allocs_per_request"] = metric{decAllocs, "count"}
	m["wire.body_bytes_per_sample"] = metric{bytesPerSample, "bytes"}

	// stream: the bare tracker, and the reference events it implies.
	st, err := replayStream(rs, rec)
	if err != nil {
		return nil, err
	}
	m["stream.pushblock_ns_per_sample"] = metric{st.nsPerSample, "ns"}
	m["stream.allocs_per_ksample"] = metric{st.allocsPerK, "count"}
	m["stream.events_per_ksample"] = metric{st.eventsPerK, "count"}
	m["stream.flush_us"] = metric{us(st.flush.quantile(0.5)), "us"}
	m["wire.event_encode_ns_per_event"] = metric{replayEncode(st.events, rec), "ns"}

	// engine: the session hub, untraced and with every session traced,
	// alternated so neither side always runs on a colder process.
	var hubs, traceds []*hubResult
	for r := 0; r < hubRounds; r++ {
		for _, tr := range []bool{false, true} {
			h, err := replayHub(ctx, rs, tr, rec)
			if err != nil {
				return nil, err
			}
			if tr {
				traceds = append(traceds, h)
			} else {
				hubs = append(hubs, h)
			}
		}
	}
	hub, traced := medianHub(hubs), medianHub(traceds)
	m["engine.hub_ns_per_sample"] = metric{hub.nsPerSample, "ns"}
	m["engine.enqueue_ns_per_sample"] = metric{hub.enqueueNs, "ns"}
	m["engine.overhead_ns_per_sample"] = metric{hub.nsPerSample - st.nsPerSample, "ns"}
	m["engine.event_lag_us_p50"] = metric{us(hub.lag.quantile(0.5)), "us"}
	m["engine.event_lag_us_p99"] = metric{us(hub.lag.quantile(0.99)), "us"}
	m["engine.session_start_us"] = metric{us(hub.start.quantile(0.5)), "us"}
	m["tracing.hub_overhead_ns_per_sample"] = metric{traced.nsPerSample - hub.nsPerSample, "ns"}

	// statecodec/store/cluster: snapshots of the replayed trackers,
	// saved locally and over the state protocol.
	snaps, err := replaySnapshots(rs, rec)
	if err != nil {
		return nil, err
	}
	m["stream.snapshot_us"] = metric{us(snaps.took.quantile(0.5)), "us"}
	m["stream.snapshot_bytes"] = metric{snaps.meanBytes, "bytes"}
	save, err := replayDirSave(snaps.blobs, filepath.Join(dir, "ledger-store"), rec)
	if err != nil {
		return nil, err
	}
	m["store.save_us_p50"] = metric{us(save.quantile(0.5)), "us"}
	m["store.save_us_p99"] = metric{us(save.quantile(0.99)), "us"}
	rsave, rmiss, err := replayRemote(snaps.blobs, filepath.Join(dir, "ledger-remote"), rec)
	if err != nil {
		return nil, err
	}
	m["cluster.remote_save_us_p50"] = metric{us(rsave.quantile(0.5)), "us"}
	m["cluster.remote_load_miss_us_p50"] = metric{us(rmiss.quantile(0.5)), "us"}

	// cluster routing, from the live window.
	h := &wr.half[0]
	hop, share := 0.0, 0.0
	if h.ingestHop.n > 0 && h.ingestOwn.n > 0 {
		hop = ms(h.ingestHop.quantile(0.5)) - ms(h.ingestOwn.quantile(0.5))
		share = float64(h.ingestHop.n) / float64(h.ingestHop.n+h.ingestOwn.n)
	}
	m["cluster.proxy_hop_ms_p50"] = metric{hop, "ms"}
	m["cluster.hop_share"] = metric{share, "ratio"}

	// The ledger: server CPU per sample = decode + hub (+ its tracing,
	// where the workload traces) + event encode + checkpoints + residue.
	cpu := e2e["server_cpu_ns_per_sample"].Value
	hubCost := hub.nsPerSample
	if p.w.sampledEvery > 0 {
		hubCost = traced.nsPerSample
	}
	encode := m["wire.event_encode_ns_per_event"].Value * st.eventsPerK / 1000
	checkpoint := 0.0
	if p.w.replicas > 1 {
		// Each live session is snapshotted, saved locally and replicated
		// to its other owner once per interval.
		perSession := snaps.took.quantile(0.5) + save.quantile(0.5) + rsave.quantile(0.5)
		checkpoint = float64(p.w.slots) * perSession / checkpointEvery.Seconds() / p.w.offeredSPS()
	}
	m["server.cpu_ns_per_sample"] = metric{cpu, "ns"}
	m["store.checkpoint_ns_per_sample"] = metric{checkpoint, "ns"}
	m["server.residue_ns_per_sample"] = metric{cpu - decNs - hubCost - encode - checkpoint, "ns"}
	m["server.gc_cpu_fraction"] = metric{wr.gcFraction, "ratio"}

	// The generator's own validity figures.
	m["gen.late_ms_p99"] = metric{ms(h.late.quantile(0.99)), "ms"}
	m["gen.cpu_ns_per_sample"] = metric{float64(wr.genCPU[0]) / float64(h.accepted), "ns"}
	p0, p1 := h.ingest.quantile(0.5), wr.half[1].ingest.quantile(0.5)
	m["gen.trace_overhead_pct"] = metric{100 * (p1 - p0) / p0, "%"}
	return m, nil
}

// timed records one call as a span under parent and returns its
// duration.
func timed(rec *spanRecorder, name string, parent, req uint64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	rec.add(span{Name: name, Parent: parent, Req: req, Start: start, End: end})
	return end.Sub(start)
}

// root opens a layer pass span; the returned func closes it.
func root(rec *spanRecorder, name string) (uint64, func()) {
	id := rec.newID()
	start := time.Now()
	return id, func() { rec.add(span{ID: id, Name: name, Start: start, End: time.Now()}) }
}

// replayDecode decodes every replayed body with the server's decoder,
// 64 samples per NextBlock as the server asks for them: once timed with
// a span per request, once more untimed to count allocations.
func replayDecode(rs *replaySet, binary bool, rec *spanRecorder) (nsPerSample, allocsPerReq, bytesPerSample float64, err error) {
	ct := contentType(binary)
	var block []trace.Sample
	decode := func(body []byte) (int, error) {
		dec := wire.NewDecoder(bytes.NewReader(body), ct)
		n := 0
		for {
			var derr error
			block, derr = dec.NextBlock(block, ptrack.BlockSamples)
			n += len(block)
			if derr == io.EOF {
				return n, nil
			}
			if derr != nil {
				return n, fmt.Errorf("decode replay: %w", derr)
			}
		}
	}
	parent, done := root(rec, "replay.wire.decode")
	var total time.Duration
	var nbytes, decoded int
	for i, r := range rs.pushes {
		body := r.s.body(r.k)
		nbytes += len(body)
		var n int
		total += timed(rec, "wire.Decoder.NextBlock", parent, uint64(i+1), func() { n, err = decode(body) })
		if err != nil {
			done()
			return 0, 0, 0, err
		}
		decoded += n
	}
	done()
	if decoded != rs.samples {
		return 0, 0, 0, fmt.Errorf("decode replay: %d samples, want %d", decoded, rs.samples)
	}
	allocs := countMallocs(func() {
		for _, r := range rs.pushes {
			_, _ = decode(r.s.body(r.k))
		}
	})
	n := float64(rs.samples)
	return float64(total) / n, float64(allocs) / float64(len(rs.pushes)), float64(nbytes) / n, nil
}

// countMallocs returns the heap allocations f makes.
func countMallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

type streamResult struct {
	nsPerSample, allocsPerK, eventsPerK float64
	flush                               hist
	events                              []ptrack.Event
}

// replayStream pushes each session's stream through its own
// ptrack.Online in 64-sample blocks, interleaved in schedule order, then
// flushes each as a session end does: once timed with a span per call,
// once more on fresh trackers, untimed, to count allocations.
func replayStream(rs *replaySet, rec *spanRecorder) (*streamResult, error) {
	newTrackers := func() (map[*session]*ptrack.Online, error) {
		trackers := map[*session]*ptrack.Online{}
		for _, s := range rs.sessions {
			o, err := ptrack.NewOnline(sampleRate)
			if err != nil {
				return nil, err
			}
			trackers[s] = o
		}
		return trackers, nil
	}
	// each calls f with every block in replay order.
	each := func(f func(i int, o *ptrack.Online, blk []trace.Sample), trackers map[*session]*ptrack.Online) {
		pos := map[*session]int{}
		for i, r := range rs.pushes {
			stream := rs.streams[r.s]
			for b := 0; b < pushSamples; b += ptrack.BlockSamples {
				f(i, trackers[r.s], stream[pos[r.s]+b:pos[r.s]+b+ptrack.BlockSamples])
			}
			pos[r.s] += pushSamples
		}
	}
	trackers, err := newTrackers()
	if err != nil {
		return nil, err
	}
	parent, done := root(rec, "replay.stream")
	out := &streamResult{}
	var evs []ptrack.Event
	var total time.Duration
	each(func(i int, o *ptrack.Online, blk []trace.Sample) {
		total += timed(rec, "ptrack.Online.PushBlock", parent, uint64(i+1), func() {
			evs = o.PushBlock(blk, evs[:0])
		})
		for _, ev := range evs {
			out.events = append(out.events, copyEvent(ev))
		}
	}, trackers)
	for i, s := range rs.sessions {
		o := trackers[s]
		out.flush.observeDur(timed(rec, "ptrack.Online.Flush", parent, uint64(len(rs.pushes)+i+1), func() {
			for _, ev := range o.Flush() {
				out.events = append(out.events, copyEvent(ev))
			}
		}))
	}
	done()
	if trackers, err = newTrackers(); err != nil {
		return nil, err
	}
	allocs := countMallocs(func() {
		each(func(_ int, o *ptrack.Online, blk []trace.Sample) { evs = o.PushBlock(blk, evs[:0]) }, trackers)
	})
	n := float64(rs.samples)
	out.nsPerSample = float64(total) / n
	out.allocsPerK = float64(allocs) / n * 1000
	out.eventsPerK = float64(len(out.events)) / n * 1000
	return out, nil
}

// replayEncode times wire.AppendEvent over the replay's events, looping
// them until at least 20000 encodes.
func replayEncode(events []ptrack.Event, rec *spanRecorder) float64 {
	if len(events) == 0 {
		return 0
	}
	parent, done := root(rec, "replay.wire.encode")
	defer done()
	reps := (20000 + len(events) - 1) / len(events)
	var buf []byte
	var total time.Duration
	for r := 0; r < reps; r++ {
		total += timed(rec, "wire.AppendEvent(batch)", parent, uint64(r+1), func() {
			for _, ev := range events {
				buf = wire.AppendEvent(buf[:0], ev)
			}
		})
	}
	return float64(total) / float64(reps*len(events))
}

type hubResult struct {
	nsPerSample, enqueueNs float64
	lag, start             hist
}

// replayHub pushes the replay through a ptrack.SessionHub configured as
// the server configures it (observer attached) on one P, yielding after
// every request as the server's handler goroutine does. Traced, every
// session carries a sampled trace context from its first push.
func replayHub(ctx context.Context, rs *replaySet, traced bool, rec *spanRecorder) (*hubResult, error) {
	// Reference decidable sample indices, for event lag.
	refs := map[string][]refEvent{}
	byID := map[string]*session{}
	for _, s := range rs.sessions {
		ref, err := reference(rs.streams[s])
		if err != nil {
			return nil, err
		}
		refs[s.id] = ref
		byID[s.id] = s
	}
	observer := ptrack.NewObserver(ptrack.NewMetrics())
	if traced {
		observer = observer.WithTracer(ptrack.NewTracer(ptrack.TracerConfig{
			Service: "perfbench", Exporter: ptrack.NewTraceRing(0),
		}))
	}
	var mu sync.Mutex
	hooked := map[string][]time.Time{}
	hub, err := ptrack.NewSessionHubFunc(sampleRate, func(id string, _ ptrack.Event) {
		now := time.Now()
		mu.Lock()
		hooked[id] = append(hooked[id], now)
		mu.Unlock()
	}, ptrack.WithObserver(observer))
	if err != nil {
		return nil, err
	}
	name := "replay.engine.hub"
	if traced {
		name += ".traced"
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	runtime.GC()

	out := &hubResult{}
	pos := map[*session]int{}
	// blockDone[id][i] is when the PushBlock carrying block i returned.
	blockDone := map[string][]time.Time{}
	var enqueue time.Duration
	parent, done := root(rec, name)
	start := time.Now()
	for i, r := range rs.pushes {
		if err := ctx.Err(); err != nil {
			hub.Close()
			return nil, err
		}
		id := r.s.id
		first := pos[r.s] == 0
		stream := rs.streams[r.s]
		for b := 0; b < pushSamples; b += ptrack.BlockSamples {
			blk := stream[pos[r.s]+b : pos[r.s]+b+ptrack.BlockSamples]
			for len(blk) > 0 {
				var n int
				var perr error
				d := timed(rec, "ptrack.SessionHub.PushBlock", parent, uint64(i+1), func() {
					n, perr = hub.PushBlock(id, blk)
				})
				enqueue += d
				if first && b == 0 {
					out.start.observeDur(d)
					if traced {
						hub.SetTrace(id, sessionTrace(i))
					}
				}
				blk = blk[n:]
				if perr != nil && !errors.Is(perr, ptrack.ErrSessionQueueFull) {
					hub.Close()
					return nil, fmt.Errorf("hub replay: %w", perr)
				}
				if len(blk) > 0 {
					runtime.Gosched() // queue full: let the session drain
				}
			}
			blockDone[id] = append(blockDone[id], time.Now())
		}
		pos[r.s] += pushSamples
		runtime.Gosched() // the request's handler goroutine returns
	}
	for _, s := range rs.sessions {
		hub.End(s.id)
	}
	elapsed := time.Since(start)
	done()
	hub.Close()

	for id, ref := range refs {
		times := hooked[id]
		if len(times) != len(ref) {
			return nil, fmt.Errorf("hub replay of %s: %d events, reference %d", id, len(times), len(ref))
		}
		for i, ev := range ref {
			if ev.decidedAt < 0 {
				continue
			}
			ret := blockDone[id][ev.decidedAt/ptrack.BlockSamples]
			out.lag.observeDur(max(0, times[i].Sub(ret)))
		}
	}
	n := float64(rs.samples)
	out.nsPerSample = float64(elapsed) / n
	out.enqueueNs = float64(enqueue) / n
	return out, nil
}

// medianHub returns the replay with the median ns per sample.
func medianHub(rs []*hubResult) *hubResult {
	sort.Slice(rs, func(i, j int) bool { return rs[i].nsPerSample < rs[j].nsPerSample })
	return rs[len(rs)/2]
}

// sessionTrace is a sampled span context for the traced hub replay.
func sessionTrace(i int) tracing.SpanContext {
	var sc tracing.SpanContext
	sc.TraceID[0], sc.TraceID[15] = 1, byte(i)
	sc.SpanID[0], sc.SpanID[7] = 1, byte(i>>8)
	sc.Flags = tracing.FlagSampled
	return sc
}

type snapResult struct {
	took      hist
	meanBytes float64
	blobs     map[string][]byte
}

// replaySnapshots brings one tracker per replayed session to the state
// its stream leaves it in, then times Tracker.Snapshot (statecodec) on
// each.
func replaySnapshots(rs *replaySet, rec *spanRecorder) (*snapResult, error) {
	parent, done := root(rec, "replay.stream.snapshot")
	defer done()
	out := &snapResult{blobs: map[string][]byte{}}
	var total int
	var evs []stream.Event
	for i, s := range rs.sessions {
		tk, err := stream.New(stream.Config{SampleRate: sampleRate})
		if err != nil {
			return nil, err
		}
		samples := rs.streams[s]
		for b := 0; b < len(samples); b += stream.BlockSamples {
			evs = tk.PushBlock(samples[b:b+stream.BlockSamples], evs[:0])
		}
		var blob []byte
		out.took.observeDur(timed(rec, "stream.Tracker.Snapshot", parent, uint64(i+1), func() {
			blob = tk.Snapshot(nil)
		}))
		out.blobs[s.id] = blob
		total += len(blob)
	}
	out.meanBytes = float64(total) / float64(len(rs.sessions))
	return out, nil
}

// storeOps lists the (id, blob) saves a store replay makes: the blobs
// in a fixed order, storeRounds times, capped at maxStoreOps.
func storeOps(blobs map[string][]byte) []string {
	ids := make([]string, 0, len(blobs))
	for id := range blobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var ops []string
	for r := 0; r < storeRounds && len(ops) < maxStoreOps; r++ {
		for _, id := range ids {
			if len(ops) == maxStoreOps {
				break
			}
			ops = append(ops, id)
		}
	}
	return ops
}

// replayDirSave times store.Dir.Save of the snapshot blobs.
func replayDirSave(blobs map[string][]byte, dir string, rec *spanRecorder) (*hist, error) {
	d, err := store.NewDir(dir)
	if err != nil {
		return nil, err
	}
	parent, done := root(rec, "replay.store.dir")
	defer done()
	h := &hist{}
	for i, id := range storeOps(blobs) {
		var serr error
		h.observeDur(timed(rec, "store.Dir.Save", parent, uint64(i+1), func() { serr = d.Save(id, blobs[id]) }))
		if serr != nil {
			return nil, serr
		}
	}
	return h, nil
}

// replayRemote times cluster.RemoteStore.Save and a Load miss against a
// cluster.StateHandler over a directory store, served on loopback.
func replayRemote(blobs map[string][]byte, dir string, rec *spanRecorder) (save, miss *hist, err error) {
	d, err := store.NewDir(dir)
	if err != nil {
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: cluster.NewStateHandler(d, 8<<20)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-served
	}()
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	rs, err := cluster.NewRemoteStore("http://"+l.Addr().String(), cluster.WithRemoteHTTPClient(hc), cluster.WithRemoteRetry(0, 0))
	if err != nil {
		return nil, nil, err
	}
	parent, done := root(rec, "replay.cluster.remote")
	defer done()
	save, miss = &hist{}, &hist{}
	ops := storeOps(blobs)
	for i, id := range ops {
		var serr error
		save.observeDur(timed(rec, "cluster.RemoteStore.Save", parent, uint64(i+1), func() { serr = rs.Save(id, blobs[id]) }))
		if serr != nil {
			return nil, nil, serr
		}
	}
	for i := range ops {
		id := fmt.Sprintf("absent-%d", i)
		var lerr error
		miss.observeDur(timed(rec, "cluster.RemoteStore.Load(miss)", parent, uint64(len(ops)+i+1), func() { _, lerr = rs.Load(id) }))
		if !errors.Is(lerr, store.ErrNotFound) {
			return nil, nil, fmt.Errorf("remote load of absent %s: %v", id, lerr)
		}
	}
	return save, miss, nil
}
