package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cloud"
	"repro/internal/events"
	"repro/internal/gsm"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/trace"
)

// perLayer fills the traced run's per-layer metrics: self times from the
// spans, counter deltas over the timed phases (whose requests are timed),
// and a direct replay of the phases' operations through the layers' public
// functions.
func perLayer(rep *report, cfg *config, e *env, pop *population, executed [][]request, tr *tracer,
	a, b counters, startDays [][2]int, timed []result, lags []float64, recRegs []*obs.Registry) {
	requests := float64(len(timed))

	// Spans: self time per layer, and the server span per route class.
	var clientSelf, netSelf, putClient []float64
	server := map[string][]float64{}
	nested := true
	for _, bd := range tr.breakdowns() {
		clientSelf = append(clientSelf, durUS(bd.clientSelf()))
		netSelf = append(netSelf, durUS(bd.netSelf()))
		c := routeClass(bd.route)
		server[c] = append(server[c], durUS(bd.server))
		if c == classPut {
			putClient = append(putClient, durUS(bd.client))
		}
		if !bd.nested || bd.clientSelf() < 0 || bd.netSelf() < 0 {
			nested = false
		}
	}
	if !nested {
		rep.violations = append(rep.violations, "traced spans do not nest (client ⊇ transport ⊇ server)")
	}
	rep.set("client.self_us", "us", pct(clientSelf, 0.5).Value)
	rep.set("net.self_us", "us", pct(netSelf, 0.5).Value)
	rep.set("trace.put_p50_us", "us", pct(putClient, 0.5).Value)
	for _, c := range classes {
		rep.set("server."+c+"_p50_us", "us", pct(server[c], 0.5).Value)
		rep.set("server."+c+"_p99_us", "us", pct(server[c], 0.99).Value)
	}
	rep.detail["spans_nested"] = nested
	rep.detail["span_requests"] = len(clientSelf)

	// Client wire counters.
	rep.set("wire.sent_bytes_per_req", "B", ratio(float64(b.client.CounterDelta(a.client, "client_wire_bytes_sent_total")), requests))
	rep.set("wire.recv_bytes_per_req", "B", ratio(float64(b.client.CounterDelta(a.client, "client_wire_bytes_received_total")), requests))
	rep.set("wire.json_fallbacks", "count", float64(b.client.CounterDelta(a.client, "client_wire_json_fallbacks_total")))

	// Store-side index and memo counters.
	hits := nodeDelta(a, b, "analytics_index_hits_total")
	rep.set("analytics.index_hit_ratio", "ratio", ratio(hits, hits+nodeDelta(a, b, "analytics_index_fallbacks_total")))
	memo := nodeDelta(a, b, "popular_memo_hits_total")
	rep.set("popular.memo_hit_ratio", "ratio", ratio(memo, memo+nodeDelta(a, b, "popular_recomputes_total")))

	// Discover pool and ingest, in the process-wide registry.
	defDelta := func(name string) float64 { return float64(b.def.CounterDelta(a.def, name)) }
	ws, wc := histDelta(a.def, b.def, "pci_discover_wait_us")
	rs, rc := histDelta(a.def, b.def, "pci_discover_run_us")
	rep.set("discover.wait_us", "us", ratio(ws, wc))
	rep.set("discover.run_us", "us", ratio(rs, rc))
	inc, full := defDelta("pci_discover_incremental_total"), defDelta("pci_discover_full_total")
	rep.set("discover.incremental_ratio", "ratio", ratio(inc, inc+full))
	dmemo := defDelta("pci_discover_memo_hits_total")
	rep.set("discover.memo_hit_ratio", "ratio", ratio(dmemo, dmemo+inc+full))
	rep.set("discover.rejected", "count", defDelta("pci_discover_rejected_total"))
	uploads := 0.0
	for _, r := range timed {
		if c := routeClass(r.route); c == classIngest || c == classDiscover {
			uploads++
		}
	}
	rep.set("ingest.obs_per_req", "count", ratio(defDelta("pci_trace_appended_obs_total"), uploads))
	rep.set("events.lag_p99_us", "us", pct(lags, 0.99).Value)
	rep.set("events.dropped", "count", defDelta("pci_events_dropped_total"))
	rep.detail["events.received"] = len(lags)

	// Storage engine.
	rep.set("storage.wal_bytes_per_record", "B", ratio(nodeDelta(a, b, "storage_wal_append_bytes_total"), nodeDelta(a, b, "storage_wal_append_records_total")))
	rep.set("storage.records_per_commit", "count", ratio(nodeDelta(a, b, "storage_commit_records_total"), nodeDelta(a, b, "storage_commit_batches_total")))
	rep.set("storage.fsync_count", "count", nodeDelta(a, b, "storage_wal_fsync_total"))
	fs, _ := nodeHistDelta(a, b, "storage_wal_fsync_duration_us")
	rep.set("storage.fsync_ms", "ms", fs/1e3)
	rep.set("storage.compactions", "count", nodeDelta(a, b, "storage_compactions_total"))
	var pauseMax float64
	for _, s := range b.nodes {
		pauseMax = max(pauseMax, float64(s.Histograms["pci_storage_compact_pause_us"].Max))
	}
	rep.set("storage.compact_pause_max_us", "us", pauseMax)
	es, _ := nodeHistDelta(a, b, "pci_storage_compact_encode_us")
	rep.set("storage.compact_encode_ms", "ms", es/1e3)
	var recSum, recMax, replayed float64
	for _, reg := range recRegs {
		s := reg.Snapshot()
		h := s.Histograms["pci_storage_boot_recover_us"]
		recSum += float64(h.Sum)
		recMax = max(recMax, float64(h.Max))
		replayed += float64(s.Counter("storage_replay_records_total"))
	}
	rep.set("storage.recover_shard_sum_ms", "ms", recSum/1e3)
	rep.set("storage.recover_shard_max_ms", "ms", recMax/1e3)
	rep.set("storage.replay_records", "count", replayed)

	// Cluster.
	rep.set("cluster.records_per_batch", "count", ratio(nodeDelta(a, b, "pci_repl_shipped_records_total"), nodeDelta(a, b, "pci_repl_ship_batches_total")))
	rep.set("cluster.ship_errors", "count", nodeDelta(a, b, "pci_repl_ship_errors_total"))
	var lag float64
	for _, s := range b.nodes {
		lag += float64(s.Gauges["pci_repl_lag_records"])
	}
	rep.set("cluster.lag_records", "count", lag)
	rep.set("cluster.redirects", "count", float64(b.client.CounterDelta(a.client, "client_cluster_redirects_total")))
	rep.set("cluster.failovers", "count", float64(b.client.CounterDelta(a.client, "client_cluster_failovers_total")))
	rep.set("cluster.proxied", "count", nodeDelta(a, b, "pci_cluster_proxied_total"))

	// Go runtime.
	rep.set("go.alloc_bytes_per_req", "B", ratio(float64(b.rt.alloc-a.rt.alloc), requests))
	rep.set("go.gc_cpu_frac", "ratio", ratio(b.rt.gcCPU-a.rt.gcCPU, b.rt.totalCPU-a.rt.totalCPU))
	rep.set("go.gc_pause_p99_us", "us", pauseP99US(a.rt, b.rt))

	rp, err := replay(cfg, pop, executed, startDays)
	if err != nil {
		rep.violations = append(rep.violations, fmt.Sprintf("replay: %v", err))
		rp = &replayTimes{}
	}
	rep.set("store.put_us", "us", pct(rp.put, 0.5).Value)
	rep.set("store.read_us", "us", pct(rp.read, 0.5).Value)
	rep.set("store.auth_us", "us", pct(rp.auth, 0.5).Value)
	rep.set("gsm.discover_us", "us", pct(rp.discover, 0.5).Value)
	rep.set("events.detect_us", "us", pct(rp.detect, 0.5).Value)
}

// replayTimes are the replayed operations' durations in microseconds.
type replayTimes struct {
	put, read, auth, discover, detect []float64
}

// replay builds a store the way set-up does and replays the timed phases'
// operations on it directly: profile puts and reads through the Store and
// Analytics API, token checks through Store.Authenticate, uploads through
// gsm.Discover and events.Detector.Feed.
func replay(cfg *config, pop *population, executed [][]request, startDays [][2]int) (*replayTimes, error) {
	w := cfg.w
	dir := filepath.Join(cfg.dir, "replay")
	defer removeAll(dir)
	dep := &deployment{w: w, nodes: []*node{{id: "replay", dir: dir}}}
	if err := dep.open(); err != nil {
		return nil, err
	}
	defer dep.close()
	store := dep.nodes[0].store
	users := newUsers(w, pop)
	if err := populate(cfg, dep, users); err != nil {
		return nil, err
	}
	tokens := make([]string, len(users))
	traces := make([][]trace.GSMObservation, len(users))
	dets := make([]*events.Detector, len(users))
	for j, u := range users {
		reg, err := store.Register(u.imei, u.email)
		if err != nil {
			return nil, err
		}
		tokens[j] = reg.Token
		u.obsDays, u.profDays = startDays[j][0], startDays[j][1]
	}
	an := cloud.NewAnalytics(store)
	out := &replayTimes{}
	since := func(t0 time.Time) float64 { return durUS(time.Since(t0)) }
	upload := func(j int, u *user) []trace.GSMObservation {
		if traces[j] == nil {
			for d := 0; d < u.obsDays; d++ {
				traces[j] = append(traces[j], u.tmpl.obsDay(d)...)
			}
			dets[j] = events.NewDetector(gsm.DefaultParams())
			dets[j].CatchUp(traces[j])
		}
		day := u.tmpl.obsDay(u.obsDays)
		u.obsDays++
		traces[j] = append(traces[j], day...)
		t0 := time.Now()
		dets[j].Feed(day)
		out.detect = append(out.detect, since(t0))
		return traces[j]
	}
	from, to := rangeWindow(w.fixtureDays, w.profileWindowDays)
	for _, reqs := range executed {
		for _, r := range reqs {
			u := users[r.user]
			t0 := time.Now()
			if _, err := store.Authenticate(tokens[r.user]); err != nil {
				return nil, err
			}
			out.auth = append(out.auth, since(t0))
			switch r.route {
			case load.RouteProfilePut:
				p := u.tmpl.profileDay(u.profDays, u.id)
				u.profDays++
				t0 = time.Now()
				if err := store.PutProfile(u.id, p); err != nil {
					return nil, err
				}
				out.put = append(out.put, since(t0))
			case load.RouteObsStream:
				upload(r.user, u)
			case load.RouteDiscover:
				obs := upload(r.user, u)
				t0 = time.Now()
				gsm.Discover(obs, gsm.DefaultParams())
				out.discover = append(out.discover, since(t0))
			case load.RoutePlacesGet:
				t0 = time.Now()
				store.Places(u.id)
				out.read = append(out.read, since(t0))
			case load.RouteProfileRange:
				t0 = time.Now()
				store.ProfileRange(u.id, from, to)
				out.read = append(out.read, since(t0))
			case load.RoutePredictArrival:
				place := u.queryPlace()
				t0 = time.Now()
				an.TypicalArrival(u.id, place)
				out.read = append(out.read, since(t0))
			case load.RouteStatsDwell:
				place := u.queryPlace()
				t0 = time.Now()
				an.DwellStats(u.id, place)
				out.read = append(out.read, since(t0))
			case load.RouteStatsFrequency:
				place := u.queryPlace()
				t0 = time.Now()
				an.VisitFrequency(u.id, place)
				out.read = append(out.read, since(t0))
			}
		}
	}
	return out, nil
}
