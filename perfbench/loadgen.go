package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/load"
	"repro/internal/profile"
	"repro/internal/trace"
)

// outcome classes. Everything but outcomeOK counts toward failed_frac.
const (
	outcomeOK = iota
	outcome5xx
	outcomeTransport
	outcome429
	outcome4xx
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "5xx", "transport", "429", "4xx"}

func classify(err error) int {
	if err == nil {
		return outcomeOK
	}
	code, ok := cloud.StatusCode(err)
	switch {
	case !ok:
		return outcomeTransport
	case code == http.StatusTooManyRequests:
		return outcome429
	case code >= 500:
		return outcome5xx
	}
	return outcome4xx
}

// user is one registered device: its client, and how far it has synced.
// Only the worker executing the user's current request touches it; the
// per-user ordering in runPhase hands it from one request to the next.
type user struct {
	id    string
	imei  string
	email string
	tmpl  *template

	client *cloud.Client
	// span is the traced run's current span ID, read by the user's
	// transport while a call is in flight.
	span atomic.Uint64

	// obsDays and profDays are the next trace day and profile day to
	// upload; trace is everything uploaded so far.
	obsDays  int
	profDays int
	trace    []trace.GSMObservation
	// hasPlaces is whether the server holds a non-empty place set.
	hasPlaces bool
	// acked holds every acknowledged profile by date.
	acked map[string]*profile.DayProfile
}

// request is one scheduled call, due at offset due from the phase's start.
type request struct {
	due   time.Duration
	user  int
	route string
}

// buildPhase compiles one phase's requests from the load schedule generator.
// Arrival times and users come from load.BuildSchedule. Routes are drawn
// again from the mix, one draw per request from the phase's own stream:
// the generator's session rules (a register first, analytics held back
// until a profile exists) are for a cold server, and here registration and
// fixtures belong to set-up.
func buildPhase(w *workload, key load.Key, scope string, rate float64, durSec, limit int) (*load.Schedule, []request) {
	pk := key.Scoped("perfbench", w.name, scope)
	sched := load.BuildSchedule(w.spec(rate, durSec), pk)
	if limit > 0 && len(sched.Requests) > limit {
		sched.Requests = sched.Requests[:limit]
	}
	names := make([]string, 0, len(w.mix))
	for r := range w.mix {
		names = append(names, r)
	}
	sort.Strings(names)
	cum := make([]float64, len(names))
	total := 0.0
	for i, r := range names {
		total += w.mix[r]
		cum[i] = total
	}
	routes := pk.Stream("routes")
	reqs := make([]request, len(sched.Requests))
	for i := range sched.Requests {
		v := routes.Float64() * total
		route := names[len(names)-1]
		for j, c := range cum {
			if v < c {
				route = names[j]
				break
			}
		}
		sr := &sched.Requests[i]
		sr.Route = route
		reqs[i] = request{due: sr.At, user: sr.User, route: route}
	}
	return sched, reqs
}

// closedPhase builds a fixed-count request list for a closed-loop drain.
func closedPhase(w *workload, key load.Key, scope string, n int) (*load.Schedule, []request) {
	const rate = 1000.0
	dur := int(math.Ceil(float64(n)/rate*1.5)) + 2
	for {
		s, reqs := buildPhase(w, key, scope, rate, dur, n)
		if len(reqs) >= n {
			return s, reqs
		}
		dur *= 2
	}
}

// result is one executed request.
type result struct {
	route   string
	service time.Duration
	latency time.Duration
	// late is how long after its due time the dispatcher handed it to the
	// workers: the generator's own lateness.
	late    time.Duration
	outcome int
	// wasted marks a write the client can tell did no work: an upload that
	// appended nothing or a profile put that overwrote a day.
	wasted bool
}

// phaseResult is one phase's executed requests and wall time.
type phaseResult struct {
	results []result
	wall    time.Duration
}

// loadgen executes phases against a deployment.
type loadgen struct {
	w       *workload
	users   []*user
	workers int
	// fixtureDays is where profile_range's window ends.
	fixtureDays int
	tracer      *tracer

	mu         sync.Mutex
	violations []string
	// errors samples the first failed requests for the log.
	errors []string
}

func (d *loadgen) violate(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.violations) < 20 {
		d.violations = append(d.violations, fmt.Sprintf(format, args...))
	}
}

// openLoopWorkers is how many requests the open loop may have in flight,
// and so its connections per node. An open loop stands for independent
// phones: with only nproc (2) in flight, requests due behind a 2–10 ms
// upload waited for a worker, and on a 2-core host that slowed down at times
// the put and read medians measured that client-side queue, spreading
// 0.7–1.2 of themselves between runs while their service times spread 0.13.
// Workers blocked on the network cost no CPU.
const openLoopWorkers = 16

// runPhase executes reqs in list order on the given number of workers.
// Open loop (paced): a dispatcher hands each request at its due time to the
// workers, and latency is measured from the due time, so a stall delays
// every request due behind it and shows in their latency. One dispatcher,
// not one timer per worker: workers waking on their own timers spun at the
// same moments and, on two cores, kept the scheduler from polling the
// network. Closed loop: the workers drain the list back to back. Either way
// a user's requests run in list order, since each extends the last one's
// upload.
func (d *loadgen) runPhase(reqs []request, paced bool, workers int, spanBase uint64) phaseResult {
	done := make([]chan struct{}, len(reqs))
	prev := make([]int, len(reqs))
	last := map[int]int{}
	for i, r := range reqs {
		done[i] = make(chan struct{})
		p, ok := last[r.user]
		if !ok {
			p = -1
		}
		prev[i], last[r.user] = p, i
	}
	results := make([]result, len(reqs))
	// Sized to the number of sends, so the dispatcher never waits on a
	// worker and its lateness measures only its own timer.
	ch := make(chan int, len(reqs))
	start := time.Now()
	go func() {
		defer close(ch)
		for i, r := range reqs {
			if paced {
				due := start.Add(r.due)
				sleepUntil(due)
				results[i].late = time.Since(due)
			}
			ch <- i
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				r, res := reqs[i], &results[i]
				due := start.Add(r.due)
				if p := prev[i]; p >= 0 {
					<-done[p]
				}
				t0 := time.Now()
				if !paced {
					due = t0
				}
				out, wasted := d.exec(d.users[r.user], r.route, spanBase+uint64(i))
				res.route = r.route
				res.latency = time.Since(due)
				res.service = time.Since(t0)
				res.outcome = out
				res.wasted = wasted
				if d.tracer.active() {
					d.tracer.client(spanBase+uint64(i), r.route, t0, time.Now())
				}
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return phaseResult{results: results, wall: time.Since(start)}
}

// sleepUntil returns at t, typically within a few microseconds. The Go
// timer wakes an idle process up to a millisecond late, which would add
// that much, varying with load, to every open-loop latency; so it sleeps in
// the kernel until just before t and yields until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) - 200*time.Microsecond
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		// A signal ends the sleep early (EINTR); the loop sleeps again.
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// exec performs one request for u and checks its answer.
func (d *loadgen) exec(u *user, route string, span uint64) (outcome int, wasted bool) {
	u.span.Store(span)
	err := d.call(u, route, &wasted)
	if err != nil {
		d.mu.Lock()
		if len(d.errors) < 5 {
			d.errors = append(d.errors, fmt.Sprintf("%s %s: %v", route, u.id, err))
		}
		d.mu.Unlock()
	}
	return classify(err), wasted
}

func (d *loadgen) call(u *user, route string, wasted *bool) error {
	c := u.client
	switch route {
	case load.RouteProfilePut:
		p := u.tmpl.profileDay(u.profDays, u.id)
		u.profDays++
		if err := c.SyncProfile(p); err != nil {
			return err
		}
		if _, ok := u.acked[p.Date]; ok {
			*wasted = true
		}
		u.acked[p.Date] = p
		return nil
	case load.RouteObsStream:
		u.trace = append(u.trace, u.tmpl.obsDay(u.obsDays)...)
		u.obsDays++
		res, err := c.StreamObservations(context.Background(), u.trace, 0)
		if err != nil {
			return err
		}
		*wasted = res.Appended == 0
		return nil
	case load.RouteDiscover:
		u.trace = append(u.trace, u.tmpl.obsDay(u.obsDays)...)
		u.obsDays++
		places, err := c.DiscoverPlaces(u.trace)
		if err != nil {
			return err
		}
		u.hasPlaces = len(places) > 0
		return nil
	case load.RoutePlacesGet:
		places, err := c.Places()
		if err == nil && u.hasPlaces && len(places) == 0 {
			d.violate("places_get for %s returned no places", u.id)
		}
		return err
	case load.RoutePopular:
		resp, err := c.PopularPlaces(0, 0)
		if err == nil && len(resp.Places) == 0 {
			d.violate("popular returned no places")
		}
		return err
	case load.RouteProfileRange:
		from, to := rangeWindow(d.fixtureDays, d.w.profileWindowDays)
		ps, err := c.ProfileRange(from, to)
		if err == nil && len(ps) == 0 {
			d.violate("profile_range %s..%s for %s returned no profiles", from, to, u.id)
		}
		return err
	case load.RoutePredictArrival:
		place := u.queryPlace()
		resp, err := c.PredictArrival(place)
		if err == nil && resp.SampleCount == 0 {
			d.violate("predict_arrival %s for %s has no samples", place, u.id)
		}
		return err
	case load.RouteStatsDwell:
		place := u.queryPlace()
		resp, err := c.DwellStats(place)
		if err == nil && resp.Visits == 0 {
			d.violate("stats_dwell %s for %s has no visits", place, u.id)
		}
		return err
	case load.RouteStatsFrequency:
		place := u.queryPlace()
		resp, err := c.VisitFrequency(place)
		if err == nil && resp.TotalVisits == 0 {
			d.violate("stats_frequency %s for %s has no visits", place, u.id)
		}
		return err
	}
	return fmt.Errorf("perfbench: unknown route %q", route)
}

// queryPlace picks a place the user's profiles visit, rotating through them.
func (u *user) queryPlace() string {
	qp := u.tmpl.queryPlaces
	return qp[(u.profDays+len(u.acked))%len(qp)]
}

// register registers every user over HTTP on d.workers workers.
func (d *loadgen) register() error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for g := 0; g < d.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(d.users) {
					return
				}
				if err := d.users[i].client.Register(); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("register %s: %w", d.users[i].id, err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// failures summarises a phase's non-OK outcomes for the log.
func failures(results []result) string {
	var counts [numOutcomes]int
	for _, r := range results {
		counts[r.outcome]++
	}
	var parts []string
	for o := 1; o < numOutcomes; o++ {
		if counts[o] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", outcomeNames[o], counts[o]))
		}
	}
	return strings.Join(parts, " ")
}
