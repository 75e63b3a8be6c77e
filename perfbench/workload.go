package main

import (
	"sort"

	"repro/internal/load"
)

// Route classes pool the per-route latencies the end-to-end metrics report.
const (
	classPut      = "put"
	classIngest   = "ingest"
	classDiscover = "discover"
	classRead     = "read"
)

// routeClass maps a load route to its class.
func routeClass(route string) string {
	switch route {
	case load.RouteProfilePut:
		return classPut
	case load.RouteObsStream:
		return classIngest
	case load.RouteDiscover:
		return classDiscover
	}
	return classRead
}

var classes = []string{classPut, classIngest, classDiscover, classRead}

// workload is one traffic mix against one PCI deployment.
//
// Sizes are set so that one 20-second run, including three set-ups, the
// timed phases and five timed reopens, takes 30 to 40 s on a 2-core host.
// Synthesising a user's GSM trace costs about 13 ms per day, far more than
// serving the requests that upload it, so every workload draws its users'
// data from a small set of synthesised template users (see fixture.go):
// user i reuses template i mod templates under its own identity, and day d
// of a template repeats the template's week d/7 weeks later. Every write
// therefore carries data the server has not seen, however long the run.
type workload struct {
	name string
	// users is the population the schedule draws from; each is registered
	// in set-up under its own identity.
	users int
	// templates is how many users the load population synthesises.
	templates int
	zipfS     float64
	mix       map[string]float64
	wire      string
	// rate is the open-loop offered load in requests per second.
	rate float64
	// probeRate and closedRate size the serial probe's and the closed-loop
	// drain's fixed request lists (see listSize): at most the requests per
	// second each sustains on a 2-core host.
	probeRate  int
	closedRate int
	// warmupN requests run closed-loop at the end of set-up.
	warmupN int
	// fixtureDays is how many day profiles per user set-up writes through
	// Store.PutProfile.
	fixtureDays int
	// compactEvery is the store's -compact-every.
	compactEvery int
	// nodes is 1 for a single durable PCI, 2 for a replicated pair.
	nodes int
	// profileWindowDays is the profile_range read's window.
	profileWindowDays int
	// eventSubscribers is how many users the traced run subscribes to on
	// the server's event hub.
	eventSubscribers int
}

// workloads returns the benchmark's workloads at full size.
func workloads() map[string]*workload {
	return map[string]*workload{
		// Phones syncing to one durable node: the write path (decode, WAL,
		// group commit, compaction, trace store, online detection, hub)
		// does most of the work.
		"sync": {
			name:      "sync",
			users:     2000,
			templates: 48,
			mix: map[string]float64{
				load.RouteProfilePut: 0.45,
				load.RouteObsStream:  0.40,
				load.RouteDiscover:   0.05,
				load.RoutePlacesGet:  0.05,
				load.RoutePopular:    0.05,
			},
			wire: "bin",
			rate: 150,
			// Below the 800 and 1500 req/s the lists sustain: every
			// write grows the state, and with it each reopen's time.
			probeRate:        500,
			closedRate:       625,
			warmupN:          300,
			compactEvery:     1024,
			nodes:            1,
			eventSubscribers: 64,
		},
		// Place-aware apps querying a large history over JSON: auth, the
		// analytics indexes, the popular memo and JSON encoding do the work.
		"apps": {
			name:      "apps",
			users:     2000,
			templates: 48,
			zipfS:     1.2,
			mix: map[string]float64{
				load.RoutePlacesGet:      0.16,
				load.RoutePopular:        0.16,
				load.RoutePredictArrival: 0.16,
				load.RouteStatsDwell:     0.16,
				load.RouteStatsFrequency: 0.16,
				load.RouteProfileRange:   0.15,
				load.RouteProfilePut:     0.05,
			},
			wire:              "json",
			rate:              500,
			probeRate:         5000,
			closedRate:        6250,
			warmupN:           500,
			fixtureDays:       30,
			nodes:             1,
			profileWindowDays: 7,
		},
		// Two durable cluster nodes, each the other's semi-sync follower:
		// the ownership gate, WAL shipping and follower apply do work.
		"replicated": {
			name:      "replicated",
			users:     1000,
			templates: 48,
			mix: map[string]float64{
				load.RouteProfilePut: 0.70,
				load.RouteObsStream:  0.15,
				load.RoutePlacesGet:  0.15,
			},
			wire:       "bin",
			rate:       80,
			probeRate:  200,
			closedRate: 375,
			warmupN:    300,
			nodes:      2,
		},
	}
}

// workloadNames lists the workloads in report order.
func workloadNames() []string {
	names := make([]string, 0, 3)
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tiny shrinks a workload for the self-test: every mechanism runs, on a
// population and request count that finish in a few seconds.
func (w *workload) tiny() *workload {
	t := *w
	t.users = 24
	t.templates = 3
	t.rate = 100
	t.probeRate = 20
	t.closedRate = 30
	t.warmupN = 20
	if t.fixtureDays > 0 {
		t.fixtureDays = 9
	}
	if t.compactEvery > 0 {
		t.compactEvery = 16
	}
	if t.eventSubscribers > 0 {
		t.eventSubscribers = 4
	}
	return &t
}

// spec is the load spec the workload's schedules compile from.
func (w *workload) spec(rate float64, durationSec int) *load.Spec {
	return &load.Spec{
		Name:           "perfbench-" + w.name,
		Users:          w.users,
		Mode:           "open",
		RatePerSec:     rate,
		Concurrency:    1,
		DurationSec:    durationSec,
		ZipfS:          w.zipfS,
		RouteMix:       w.mix,
		Wire:           w.wire,
		WorldSeed:      2014,
		ExtentMeters:   2600,
		HauntsPerUser:  7,
		TraceDays:      templateDays,
		ObsIntervalSec: 300,
	}
}
