// Command perfbench is the repository benchmark: it drives the real
// ptrack-serve binary, in its own process, with one of three open-loop
// workloads from this one generator process, checks every delivered
// step event of the watched sessions against a reference tracker, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// ledger) as one JSON line. See README.md in this directory.
//
// Usage (from the repository root, after perfbench/run.sh has built
// the binaries):
//
//	perfbench --workload live-binary --seed 1 --seconds 24 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// A run measures `segments` windows, each on fresh servers, and sets
// the servers up setupsPerSegment times before each window: the last
// set-up of each group goes on to measure the window. setup_s is the
// median of all set-ups, taken at three points spread over the run so
// that one burst of host noise moves a few of them, not the figure.
const (
	segments         = 3
	setupsPerSegment = 10
)

// warmup is excluded from every window metric.
const warmup = time.Second

func main() {
	runtime.GOMAXPROCS(serverProcs)
	os.Exit(run(os.Args[1:]))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wname   = fs.String("workload", "", "live-binary | mixed-ndjson | cluster-churn")
		seed    = fs.Int64("seed", 0, "workload seed (required)")
		seconds = fs.Int("seconds", 20, "measured window in seconds")
		traceF  = fs.Int("trace", 0, "1 = traced run: per-layer ledger instead of end-to-end metrics")
		bin     = fs.String("bin", filepath.Join(".bench_build", "bin", "ptrack-serve"), "ptrack-serve binary")
		out     = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run files and spans")
		scale   = fs.Float64("scale", 1, "multiply the offered rate (capacity calibration only; results are not comparable)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seedGiven := false
	fs.Visit(func(f *flag.Flag) { seedGiven = seedGiven || f.Name == "seed" })
	w, err := lookupWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w.speedup *= *scale
	if *seconds < 1 || (*traceF != 0 && *traceF != 1) || !(*scale > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, --scale > 0")
		return 2
	}
	if !seedGiven {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run: --seed is required")
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server binary:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, w, config{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceF == 1, bin: *bin, out: *out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string
	out     string
}

// live is one set-up: the server processes, the generator bound to
// them and its running watchers.
type live struct {
	ss       *serverSet
	g        *gen
	cancel   context.CancelFunc
	watchers sync.WaitGroup
}

// teardown stops the watchers and the servers and waits for both.
func (l *live) teardown() {
	l.cancel()
	l.ss.stop()
	l.watchers.Wait()
	for _, sd := range l.g.senders {
		sd.hc.CloseIdleConnections()
	}
	l.g.sseHC.CloseIdleConnections()
}

// setup execs the servers and returns once every slot's first push is
// acknowledged and every watched stream attached, with the time that
// took from exec.
func setup(ctx context.Context, p *plan, cfg config, dir string, nSenders int, rec *spanRecorder) (*live, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	ss, err := startServers(p.w, cfg.bin, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := ss.waitListening(ctx); err != nil {
		ss.stop()
		return nil, 0, err
	}
	g, err := newGen(p, ss.bases(), ss.nodes, nSenders, rec)
	if err != nil {
		ss.stop()
		return nil, 0, err
	}
	wctx, cancel := context.WithCancel(ctx)
	l := &live{ss: ss, g: g, cancel: cancel}
	for slot := 0; slot < p.w.watched; slot++ {
		l.watchers.Add(1)
		go func(slot int) {
			defer l.watchers.Done()
			g.watcher(wctx, slot)
		}(slot)
	}
	if err := g.setupPushes(ctx); err != nil {
		l.teardown()
		return nil, 0, err
	}
	return l, time.Since(start), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowResult is everything one segment measured.
type windowResult struct {
	half       [2]halfStats
	elapsed    [2]time.Duration
	serverCPU  [2]time.Duration
	genCPU     [2]time.Duration
	event      [2]hist
	refEvents  int64
	delivered  int64
	mismatch   error
	hwm        int64
	gcFraction float64
	replay     []pushRef
	shape      loadShape
}

// runResult is a whole run: every set-up time and every measured
// segment, the last of which the traced run replays.
type runResult struct {
	setup []float64
	segs  []*windowResult
}

func (rr *runResult) last() *windowResult { return rr.segs[len(rr.segs)-1] }

func bench(ctx context.Context, w workload, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	segSeconds := cfg.seconds / segments
	interval := time.Duration(w.intervalSeconds() * float64(time.Second))
	ticks := 2 + int(math.Ceil(float64(warmup+segSeconds)/float64(interval)))
	p, err := newPlan(w, cfg.seed, ticks)
	if err != nil {
		return nil, err
	}
	var rec *spanRecorder
	if cfg.traced {
		rec = newSpanRecorder()
	}
	rr, err := measure(ctx, p, cfg, runDir, rec)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	segE2E := make([]map[string]metric, len(rr.segs))
	for i, seg := range rr.segs {
		if err := seg.shape.check(); err != nil {
			return nil, err
		}
		if seg.mismatch != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: segment %d: event check failed: %v\n", i, seg.mismatch)
		}
		res.Attempted += seg.half[0].attempted + seg.half[1].attempted
		res.Failed += seg.half[0].failed + seg.half[1].failed
		segE2E[i] = endToEnd(seg)
	}
	e2e := medianMetrics(segE2E)
	e2e["setup_s"] = metric{median(rr.setup), "s"}
	printSummary(w, cfg, e2e, rr)
	if !cfg.traced {
		res.Metrics = map[string]metric{}
		for name, m := range e2e {
			if !latencyMetrics[name] {
				res.Metrics[name] = m
			}
		}
		return res, nil
	}
	layers, err := ledger(ctx, p, rr.last(), e2e, runDir, rec)
	if err != nil {
		return nil, err
	}
	for name := range latencyMetrics {
		layers[name] = e2e[name]
	}
	res.Metrics = layers
	spansPath := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := rec.write(spansPath); err != nil {
		return nil, err
	}
	for _, st := range rec.summary() {
		fmt.Fprintf(os.Stderr, "span %-32s n=%-7d total=%10.3fms self=%10.3fms\n", st.Name, st.Count, st.Total/1e6, st.Self/1e6)
	}
	fmt.Fprintln(os.Stderr, "spans written to", spansPath)
	return res, nil
}

// latencyMetrics are the end-to-end latency percentiles. Every run
// prints them in its summary, but only the traced run reports them: on
// a shared 2-vCPU host their median moves 20-50% between runs of the
// same code, more than the largest bound a gated metric may have (see
// README.md).
var latencyMetrics = map[string]bool{
	"ingest_p50_ms": true, "ingest_p99_ms": true, "event_p50_ms": true, "event_p99_ms": true,
}

// medianMetrics takes each metric's median over the segments.
func medianMetrics(segs []map[string]metric) map[string]metric {
	out := map[string]metric{}
	for name, m := range segs[0] {
		vals := make([]float64, len(segs))
		for i, s := range segs {
			vals[i] = s[name].Value
		}
		out[name] = metric{median(vals), m.Unit}
	}
	return out
}

// measure sets the servers up setupsPerSegment times per segment; the
// last set-up of each segment measures one window of seconds/segments,
// so a run's figure is the median over independent server instances.
func measure(ctx context.Context, p *plan, cfg config, runDir string, rec *spanRecorder) (*runResult, error) {
	nSenders := min(2, runtime.NumCPU(), p.w.slots)
	rr := &runResult{}
	for seg := 0; seg < segments; seg++ {
		for rep := 0; rep < setupsPerSegment; rep++ {
			// Collect the generator's garbage from the last window now, so a
			// generator GC does not land inside the timed set-up.
			runtime.GC()
			dir := filepath.Join(runDir, fmt.Sprintf("seg%d-rep%d", seg, rep))
			l, d, err := setup(ctx, p, cfg, dir, nSenders, rec)
			if err != nil {
				return nil, fmt.Errorf("segment %d set-up %d: %w", seg, rep, err)
			}
			rr.setup = append(rr.setup, d.Seconds())
			if rep == setupsPerSegment-1 {
				// The traced run splits its last segment into an untraced and
				// a traced half.
				traced := cfg.traced && seg == segments-1
				w, err := l.measureWindow(ctx, cfg.seconds/segments, traced)
				if err != nil {
					l.teardown()
					return nil, fmt.Errorf("segment %d: %w", seg, err)
				}
				rr.segs = append(rr.segs, w)
			}
			l.teardown()
		}
	}
	return rr, nil
}

// measureWindow runs one measured window on a set-up, then ends every
// session and checks the watched streams.
func (l *live) measureWindow(ctx context.Context, seconds time.Duration, traced bool) (*windowResult, error) {
	g, ss := l.g, l.ss
	wr := &windowResult{}
	t0 := time.Now().Add(5 * time.Millisecond)
	win := window{t0: t0, start: t0.Add(warmup), end: t0.Add(warmup + seconds)}
	win.mid = win.end
	if traced {
		win.mid = win.start.Add(seconds / 2)
		g.tracedFrom.Store(win.mid.UnixNano())
	}
	pids := ss.pids()
	self := []string{"self"}
	// CPU brackets: read at start and mid by a timer goroutine, at the
	// end once every sender is done.
	var cpuStart, cpuMid [2]time.Duration
	var cpuErr error
	var brackets sync.WaitGroup
	brackets.Add(1)
	go func() {
		defer brackets.Done()
		read := func(at time.Time, dst *[2]time.Duration) {
			time.Sleep(time.Until(at))
			s, err1 := cpuOf(pids)
			gc, err2 := cpuOf(self)
			dst[0], dst[1] = s, gc
			if err := errors.Join(err1, err2); err != nil {
				cpuErr = err
			}
		}
		read(win.start, &cpuStart)
		if traced {
			read(win.mid, &cpuMid)
		}
	}()
	errs := make([]error, len(g.senders))
	var wg sync.WaitGroup
	for i, sd := range g.senders {
		wg.Add(1)
		go func(i int, sd *sender) {
			defer wg.Done()
			errs[i] = g.run(ctx, sd, win)
		}(i, sd)
	}
	wg.Wait()
	brackets.Wait()
	cpuEndS, err1 := cpuOf(pids)
	cpuEndG, err2 := cpuOf(self)
	if err := errors.Join(append(errs, cpuErr, err1, err2)...); err != nil {
		return nil, err
	}
	if !traced {
		cpuMid = [2]time.Duration{cpuEndS, cpuEndG}
	}
	wr.serverCPU = [2]time.Duration{cpuMid[0] - cpuStart[0], cpuEndS - cpuMid[0]}
	wr.genCPU = [2]time.Duration{cpuMid[1] - cpuStart[1], cpuEndG - cpuMid[1]}
	for _, sd := range g.senders {
		for h := range wr.half {
			st := &sd.stats[h]
			wr.half[h].ingest.merge(&st.ingest)
			wr.half[h].ingestOwn.merge(&st.ingestOwn)
			wr.half[h].ingestHop.merge(&st.ingestHop)
			wr.half[h].late.merge(&st.late)
			wr.half[h].attempted += st.attempted
			wr.half[h].failed += st.failed
			wr.half[h].accepted += st.accepted
			if st.lastDone.After(wr.half[h].lastDone) {
				wr.half[h].lastDone = st.lastDone
			}
		}
		wr.replay = append(wr.replay, sd.replay...)
	}
	wr.elapsed[0] = wr.half[0].lastDone.Sub(win.start)
	if traced {
		wr.elapsed[0] = win.mid.Sub(win.start)
		wr.elapsed[1] = wr.half[1].lastDone.Sub(win.mid)
	}
	sort.SliceStable(wr.replay, func(i, j int) bool { return wr.replay[i].due.Before(wr.replay[j].due) })
	wr.shape = loadShape{
		nproc: runtime.NumCPU(), senders: len(g.senders), pushConns: g.conns.Load(),
		watched: g.w.watched, lateP99: time.Duration(wr.half[0].late.quantile(0.99)),
	}

	// End every session; watched streams then close with `end`.
	if err := g.finish(ctx); err != nil {
		return nil, err
	}
	deadline := time.After(30 * time.Second)
	for s, wt := range g.watches {
		if len(wt.epoch) == 0 {
			continue // never started
		}
		select {
		case <-wt.ended:
		case <-deadline:
			return nil, fmt.Errorf("event stream of %s did not end", s.id)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var err error
	if wr.hwm, err = ss.hwm(); err != nil {
		return nil, err
	}
	if wr.gcFraction, err = ss.gcCPUFraction(); err != nil {
		return nil, err
	}
	wr.mismatch = checkEvents(g, win, wr)
	return wr, nil
}

// checkEvents compares each watched session's delivered events with the
// reference over exactly the samples it pushed, and charges each event
// to the scheduled send time of the push whose sample made it
// decidable.
func checkEvents(g *gen, win window, wr *windowResult) error {
	var errs []error
	for s, wt := range g.watches {
		if len(wt.epoch) == 0 {
			continue
		}
		if wt.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", s.id, wt.err))
		}
		if wt.pushed != len(wt.epoch) {
			errs = append(errs, fmt.Errorf("%s: %d of %d pushes acknowledged", s.id, wt.pushed, len(wt.epoch)))
			continue
		}
		ref, err := reference(s.samples(wt.pushed))
		if err != nil {
			return err
		}
		wr.refEvents += int64(len(ref))
		n := min(len(ref), len(wt.events))
		for i := 0; i < n; i++ {
			if !sameEvent(ref[i].ev, wt.events[i]) {
				errs = append(errs, fmt.Errorf("%s: event %d is %+v, reference %+v", s.id, i, wt.events[i], ref[i].ev))
				n = i
				break
			}
		}
		wr.delivered += int64(n)
		if len(wt.events) != len(ref) {
			errs = append(errs, fmt.Errorf("%s: %d events delivered, reference has %d", s.id, len(wt.events), len(ref)))
		}
		for i := 0; i < n; i++ {
			if ref[i].decidedAt < 0 {
				continue // decided by End's flush, not by a push
			}
			epoch := wt.epoch[ref[i].decidedAt/pushSamples]
			if epoch.IsZero() || epoch.Before(win.start) {
				continue
			}
			h := 0
			if !epoch.Before(win.mid) {
				h = 1
			}
			wr.event[h].observeDur(wt.recv[i].Sub(epoch))
		}
	}
	return errors.Join(errs...)
}

// endToEnd derives one segment's end-to-end metrics, set-up aside,
// from the first (untraced) half of its window.
func endToEnd(wr *windowResult) map[string]metric {
	h := &wr.half[0]
	okRatio := 0.0
	if h.attempted > 0 {
		okRatio = float64(h.attempted-h.failed) / float64(h.attempted)
	}
	delivery := 0.0
	if wr.refEvents > 0 {
		delivery = float64(wr.delivered) / float64(wr.refEvents)
	}
	return map[string]metric{
		"goodput_sps":              {float64(h.accepted) / wr.elapsed[0].Seconds(), "samples/s"},
		"ingest_p50_ms":            {ms(h.ingest.quantile(0.50)), "ms"},
		"ingest_p99_ms":            {ms(h.ingest.quantile(0.99)), "ms"},
		"event_p50_ms":             {ms(wr.event[0].quantile(0.50)), "ms"},
		"event_p99_ms":             {ms(wr.event[0].quantile(0.99)), "ms"},
		"server_cpu_ns_per_sample": {float64(wr.serverCPU[0]) / float64(h.accepted), "ns"},
		"server_rss_mib":           {float64(wr.hwm) / (1 << 20), "MiB"},
		"push_ok_ratio":            {okRatio, "ratio"},
		"event_delivery_ratio":     {delivery, "ratio"},
	}
}

// printSummary writes the human-readable run summary to stderr,
// including the failure and loss ratios that the gated complements stand for.
func printSummary(w workload, cfg config, e2e map[string]metric, rr *runResult) {
	fmt.Fprintf(os.Stderr, "workload %s seed %d: %d sessions (%d watched), offered %.0f samples/s, %d segments of %v\n",
		w.name, cfg.seed, w.slots, w.watched, w.offeredSPS(), segments, cfg.seconds/segments)
	for i, seg := range rr.segs {
		h := &seg.half[0]
		s := endToEnd(seg)
		fmt.Fprintf(os.Stderr, "  segment %d: pushes %d (failed %d), events %d/%d, ingest p50 %.3f p99 %.3f ms (n=%d), event p50 %.3f p99 %.3f ms (n=%d), cpu %.0f ns/sample, late p99 %.3f ms, conns %d\n",
			i, h.attempted, h.failed, seg.delivered, seg.refEvents,
			s["ingest_p50_ms"].Value, s["ingest_p99_ms"].Value, h.ingest.n,
			s["event_p50_ms"].Value, s["event_p99_ms"].Value, seg.event[0].n,
			s["server_cpu_ns_per_sample"].Value, ms(h.late.quantile(0.99)), seg.shape.pushConns)
	}
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-26s %14.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-26s %14.4f ratio\n", "push_fail_ratio", 1-e2e["push_ok_ratio"].Value)
	fmt.Fprintf(os.Stderr, "  %-26s %14.4f ratio\n", "event_loss_ratio", 1-e2e["event_delivery_ratio"].Value)
	fmt.Fprintf(os.Stderr, "  set-up times %v s\n", rr.setup)
}
