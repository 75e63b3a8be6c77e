package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/events"
	"repro/internal/obs"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything a run measured.
type report struct {
	correct    bool
	violations []string
	attempted  int
	failed     int
	metrics    map[string]metric
	// detail holds sample counts and figures outside the printed set.
	detail map[string]any
	// tracer holds the traced run's spans.
	tracer *tracer
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// counters snapshots the registries a phase's deltas come from.
type counters struct {
	def    obs.Snapshot
	nodes  []obs.Snapshot
	client obs.Snapshot
	rt     rtSample
}

func snapshot(e *env) counters {
	c := counters{def: obs.Default().Snapshot(), client: e.clientReg.Snapshot(), rt: readRuntime()}
	for _, n := range e.dep.nodes {
		c.nodes = append(c.nodes, n.reg.Snapshot())
	}
	return c
}

// nodeDelta sums a counter's growth across the nodes' registries.
func nodeDelta(a, b counters, name string) float64 {
	var total float64
	for i := range b.nodes {
		total += float64(b.nodes[i].CounterDelta(a.nodes[i], name))
	}
	return total
}

// histDelta is the growth of a histogram's sum and count in one registry.
func histDelta(a, b obs.Snapshot, name string) (sum, count float64) {
	return float64(b.Histograms[name].Sum - a.Histograms[name].Sum),
		float64(b.Histograms[name].Count - a.Histograms[name].Count)
}

func nodeHistDelta(a, b counters, name string) (sum, count float64) {
	for i := range b.nodes {
		s, c := histDelta(a.nodes[i], b.nodes[i], name)
		sum += s
		count += c
	}
	return sum, count
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// run performs one benchmark run and returns its report.
func run(cfg *config) (*report, error) {
	w := cfg.w
	rep := &report{correct: true, metrics: map[string]metric{}, detail: map[string]any{}}
	t0 := time.Now()
	pop, err := synthesize(w, cfg.seed, cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("synthesise population: %w", err)
	}
	rep.detail["gen.synth_s"] = time.Since(t0).Seconds()
	cells := cloud.NewCellDatabase(pop.world, 150)
	ph := compile(cfg)
	rep.detail["trace_hash"] = fmt.Sprintf("%016x", ph.hash)
	rep.detail["requests"] = map[string]int{"open": len(ph.open), "probe": len(ph.probe), "closed": len(ph.closed), "warmup": len(ph.warmup)}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var (
		e        *env
		setupDur []float64
		heapMB   []float64
	)
	for i := 0; i < cfg.setups; i++ {
		before := liveHeap()
		s0 := time.Now()
		e, err = setup(cfg, pop, cells, ph, i, tr)
		d := time.Since(s0)
		if err != nil {
			if e != nil {
				_ = e.teardown()
			}
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupDur = append(setupDur, d.Seconds())
		heapMB = append(heapMB, (float64(liveHeap())-float64(before))/(1<<20))
		cfg.logf("set-up %d took %.2fs", i, d.Seconds())
		if i < cfg.setups-1 {
			if err := e.teardown(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			removeAll(e.dir)
			// Drop it before the next set-up's baseline heap reading.
			e = nil
		}
	}
	rep.set("setup_s", "s", median(setupDur))
	rep.set("heap_mb", "MiB", median(heapMB))
	rep.detail["setup_s_each"] = setupDur

	var subs *hubSubscribers
	if tr != nil {
		subs = subscribe(e, w.eventSubscribers)
		e.drv.tracer = tr
	}
	start := snapshot(e)
	startDays := dayCursors(e.drv.users)
	// The timed phases run in rounds, each an open-loop slice, a serial
	// probe slice and a closed-loop slice, so that every figure samples the
	// whole run and not one stretch of the host's weather.
	var open, probe, closed, closedTraced phaseResult
	var roundGoodput []float64
	var roundProbe []phaseResult
	var executed [][]request
	for k := 0; k < cfg.rounds; k++ {
		rd := ph.round(k, cfg.rounds)
		base := uint64(k) << 24
		tr.set(true)
		open = open.add(e.drv.runPhase(rd.open, true, openLoopWorkers, 1<<32+base))
		tr.set(false)
		pr := e.drv.runPhase(rd.probe, false, 1, 0)
		probe = probe.add(pr)
		roundProbe = append(roundProbe, pr)
		executed = append(executed, rd.open, rd.probe)
		// Tracing's overhead: in the traced run, a second closed-loop list
		// of the same size drained traced in every round, so that both see
		// the same growth of the state, and first in every other round, so
		// that both inherit the background work (compactions, fsyncs) the
		// probe leaves behind equally often.
		tracedFirst := tr != nil && k%2 == 1
		if tracedFirst {
			closedTraced = closedTraced.add(drainTraced(e.drv, tr, rd.closedTraced, cfg.workers, 3<<32+base))
			executed = append(executed, rd.closedTraced)
		}
		c := e.drv.runPhase(rd.closed, false, cfg.workers, 2<<32+base)
		closed = closed.add(c)
		roundGoodput = append(roundGoodput, goodput(c))
		executed = append(executed, rd.closed)
		if tr != nil && !tracedFirst {
			closedTraced = closedTraced.add(drainTraced(e.drv, tr, rd.closedTraced, cfg.workers, 3<<32+base))
			executed = append(executed, rd.closedTraced)
		}
	}
	end := snapshot(e)
	var lags []float64
	if subs != nil {
		lags = subs.stop()
	}
	cfg.logf("open loop: %d requests in %.2fs (%s); probe: %d in %.2fs (%s); closed loop: %d in %.2fs (%s)",
		len(open.results), open.wall.Seconds(), failures(open.results),
		len(probe.results), probe.wall.Seconds(), failures(probe.results),
		len(closed.results), closed.wall.Seconds(), failures(closed.results))

	if err := e.teardown(); err != nil {
		return nil, fmt.Errorf("close after run: %w", err)
	}
	var diskBytes int64
	for _, n := range e.dep.nodes {
		b, err := dirBytes(n.dir)
		if err != nil {
			return nil, err
		}
		diskBytes += b
	}
	rep.set("disk_bytes_per_user", "B", float64(diskBytes)/float64(w.users))

	var recovers []float64
	var recRegs []*obs.Registry
	for i := 0; i < cfg.reopens; i++ {
		d, regs, bad, err := reopen(cfg, e.dep, e.drv.users, i == 0)
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, d.Seconds())
		if i == 0 {
			recRegs = regs
			rep.violations = append(rep.violations, bad...)
		}
	}
	rep.set("recover_s", "s", median(recovers))
	rep.detail["recover_s_each"] = recovers

	// The end-to-end latencies: the serial probe's successful requests,
	// pooled per route class. The closed loop's and the open loop's are in
	// the detail line.
	latency := map[string]float64{}
	probeLat := latencies(probe.results, func(r result) time.Duration { return r.latency })
	closedLat := latencies(closed.results, func(r result) time.Duration { return r.latency })
	for _, c := range classes {
		q := pct(probeLat[c], 0.5)
		latency[c+"_p50_ms"] = q.Value
		rep.detail["probe."+c+"_p50_ms"] = q
		rep.detail["closed."+c+"_p50_ms"] = pct(closedLat[c], 0.5)
	}
	for _, name := range []string{"put_p50_ms", "read_p50_ms"} {
		rep.set(name, "ms", latency[name])
	}
	rep.detail["probe_rps"] = goodput(probe)
	var probeRounds []float64
	for _, pr := range roundProbe {
		probeRounds = append(probeRounds, goodput(pr))
	}
	rep.detail["probe_rps_rounds"] = probeRounds

	// The open loop's, timed from their due time and from the call's start
	// (service).
	openLat := latencies(open.results, func(r result) time.Duration { return r.latency })
	for c, xs := range latencies(open.results, func(r result) time.Duration { return r.service }) {
		rep.detail["open."+c+"_service_p50_ms"] = pct(xs, 0.5)
	}
	var lates []float64
	for _, r := range open.results {
		lates = append(lates, durMS(r.late))
	}
	for _, c := range classes {
		p50, p99 := pct(openLat[c], 0.5), pct(openLat[c], 0.99)
		latency["open."+c+"_p50_ms"], latency["open."+c+"_p99_ms"] = p50.Value, p99.Value
		rep.detail["open."+c+"_p50_ms"], rep.detail["open."+c+"_p99_ms"] = p50, p99
	}
	rep.set("goodput_rps", "req/s", goodput(closed))
	rep.detail["goodput_rps_rounds"] = roundGoodput

	all := append(append(append(append([]result(nil), open.results...), probe.results...), closed.results...), closedTraced.results...)
	// Writes that did no work: uploads that appended nothing, profile puts
	// that overwrote a day, and discovers the server answered from its memo.
	writes, wasted := 0, int(end.def.CounterDelta(start.def, "pci_discover_memo_hits_total"))
	for _, r := range all {
		rep.attempted++
		if r.outcome != outcomeOK {
			rep.failed++
		}
		if c := routeClass(r.route); c != classRead {
			writes++
			if r.wasted {
				wasted++
			}
		}
	}
	rep.set("ok_frac", "ratio", 1-float64(rep.failed)/float64(rep.attempted))
	rep.detail["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
	rep.detail["wasted_write_frac"] = ratio(float64(wasted), float64(writes))
	late := pct(lates, 0.99)
	rep.detail["gen.late_p99_ms"] = late

	rep.violations = append(rep.violations, e.drv.violations...)
	rep.detail["failed_samples"] = e.drv.errors
	if w.wire == "bin" {
		if fb := end.client.CounterDelta(start.client, "client_wire_json_fallbacks_total"); fb != 0 {
			rep.violations = append(rep.violations, fmt.Sprintf("%d JSON fallbacks on the binary wire", fb))
		}
	}

	if tr != nil {
		rep.tracer = tr
		rep.metrics = map[string]metric{}
		perLayer(rep, cfg, e, pop, executed, tr, start, end, startDays, all, lags, recRegs)
		rep.set("gen.late_p99_ms", "ms", late.Value)
		rep.set("gen.wasted_write_frac", "ratio", ratio(float64(wasted), float64(writes)))
		for _, c := range classes {
			rep.set("e2e."+c+"_p50_ms", "ms", latency["open."+c+"_p50_ms"])
			rep.set("e2e."+c+"_p99_ms", "ms", latency["open."+c+"_p99_ms"])
		}
		tgood := goodput(closedTraced)
		rep.set("trace.overhead_frac", "ratio", 1-ratio(tgood, goodput(closed)))
		rep.detail["goodput_rps_untraced"] = goodput(closed)
		rep.detail["goodput_rps_traced"] = tgood
		if err := tr.write(filepath.Join(cfg.dir, "..", fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))); err != nil {
			return nil, err
		}
	}
	rep.correct = len(rep.violations) == 0
	return rep, nil
}

// drainTraced drains reqs closed-loop with tracing on.
func drainTraced(d *loadgen, tr *tracer, reqs []request, workers int, spanBase uint64) phaseResult {
	tr.set(true)
	defer tr.set(false)
	return d.runPhase(reqs, false, workers, spanBase)
}

// latencies pools the successful results' times, in milliseconds, per
// route class.
func latencies(results []result, of func(result) time.Duration) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range results {
		if r.outcome == outcomeOK {
			c := routeClass(r.route)
			out[c] = append(out[c], durMS(of(r)))
		}
	}
	return out
}

// add appends a later run's results and wall time.
func (p phaseResult) add(q phaseResult) phaseResult {
	return phaseResult{results: append(p.results, q.results...), wall: p.wall + q.wall}
}

// goodput is a phase's successful requests per second.
func goodput(p phaseResult) float64 {
	ok := 0
	for _, r := range p.results {
		if r.outcome == outcomeOK {
			ok++
		}
	}
	return float64(ok) / p.wall.Seconds()
}

// hubSubscribers attaches in-process subscribers to the owning node's event
// hub and times each event from its publish stamp to its receipt.
type hubSubscribers struct {
	subs []*events.Subscriber
	wg   sync.WaitGroup
	mu   sync.Mutex
	lags []float64
}

func subscribe(e *env, n int) *hubSubscribers {
	h := &hubSubscribers{}
	for i := 0; i < n && i < len(e.drv.users); i++ {
		u := e.drv.users[i]
		s := e.dep.owner(u.id).server.Hub().Subscribe(u.id, 0)
		if s == nil {
			continue
		}
		h.subs = append(h.subs, s)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			var lags []float64
			for ev := range s.C {
				if ev.PublishedUnixNano > 0 {
					lags = append(lags, float64(time.Now().UnixNano()-ev.PublishedUnixNano)/1e3)
				}
			}
			h.mu.Lock()
			h.lags = append(h.lags, lags...)
			h.mu.Unlock()
		}()
	}
	return h
}

func (h *hubSubscribers) stop() []float64 {
	for _, s := range h.subs {
		s.Close()
	}
	h.wg.Wait()
	return h.lags
}

// dayCursors records each user's upload position at the start of the
// timed phases, where the replay starts.
func dayCursors(users []*user) [][2]int {
	out := make([][2]int, len(users))
	for i, u := range users {
		out[i] = [2]int{u.obsDays, u.profDays}
	}
	return out
}
