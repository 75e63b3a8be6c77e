package main

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/profile"
)

// config is one benchmark run's parameters.
type config struct {
	w       *workload
	seed    int64
	seconds int
	traced  bool
	// setups is how many times the run sets up; setup_s and heap_mb are
	// the medians.
	setups int
	// reopens is how many times the post-run directory is reopened;
	// recover_s is the median.
	reopens int
	// rounds is how many rounds the timed phases are cut into.
	rounds  int
	workers int
	// dir holds the run's data directories and span dump.
	dir  string
	logf func(format string, args ...any)
}

// phases is the run's compiled schedule.
type phases struct {
	open, probe, closed, closedTraced, warmup []request
	// openSec is the open loop's length, the span of open's due times.
	openSec int
	hash    uint64
}

func compile(cfg *config) *phases {
	key := load.Key{Seed: cfg.seed}
	h := fnv.New64a()
	p := &phases{openSec: openSeconds(cfg.seconds)}
	var s *load.Schedule
	s, p.open = buildPhase(cfg.w, key, "open", cfg.w.rate, p.openSec, 0)
	fmt.Fprintf(h, "%016x", s.Hash())
	s, p.probe = closedPhase(cfg.w, key, "probe", listSize(cfg.w.probeRate, cfg.seconds))
	fmt.Fprintf(h, "%016x", s.Hash())
	s, p.closed = closedPhase(cfg.w, key, "closed", listSize(cfg.w.closedRate, cfg.seconds))
	fmt.Fprintf(h, "%016x", s.Hash())
	s, p.warmup = closedPhase(cfg.w, key, "warmup", cfg.w.warmupN)
	fmt.Fprintf(h, "%016x", s.Hash())
	if cfg.traced {
		s, p.closedTraced = closedPhase(cfg.w, key, "closed-traced", len(p.closed))
		fmt.Fprintf(h, "%016x", s.Hash())
	}
	p.hash = h.Sum64()
	return p
}

// openSeconds is the open loop's share of a run's measured seconds. The
// end-to-end figures come from the probe and the closed loop, which take
// the rest, two fifths each.
func openSeconds(seconds int) int { return max(1, seconds/5) }

// listSize is a fixed-count list's length: rate requests for each second of
// its two fifths of the measured seconds. The count, not the time, is
// fixed, so a run writes the same data however fast the host is; rate is at
// most what the list sustains on a 2-core host, so that there it takes at
// most its share of the time.
func listSize(rate, seconds int) int { return max(1, rate*seconds*2/5) }

// round is round k of n of the timed phases: the requests of each list that
// fall to it, the open loop's with due times relative to the round's start.
type round struct {
	open, probe, closed, closedTraced []request
}

func (p *phases) round(k, n int) round {
	part := func(reqs []request) []request { return reqs[k*len(reqs)/n : (k+1)*len(reqs)/n] }
	from := time.Duration(p.openSec) * time.Second * time.Duration(k) / time.Duration(n)
	to := time.Duration(p.openSec) * time.Second * time.Duration(k+1) / time.Duration(n)
	var open []request
	for _, r := range p.open {
		if r.due >= from && (r.due < to || k == n-1) {
			r.due -= from
			open = append(open, r)
		}
	}
	return round{open: open, probe: part(p.probe), closed: part(p.closed), closedTraced: part(p.closedTraced)}
}

// env is one set-up deployment with its registered clients.
type env struct {
	dir       string
	dep       *deployment
	drv       *loadgen
	transport *http.Transport
	clientReg *obs.Registry
}

func (e *env) teardown() error {
	err := e.dep.close()
	e.transport.CloseIdleConnections()
	return err
}

// setup builds the workload's state from nothing: the users and their
// fixture written through the public Store API, the store closed, the
// server booted on it (one recovery), every client registered over HTTP,
// and the warm-up requests run.
func setup(cfg *config, pop *population, cells *cloud.CellDatabase, ph *phases, i int, tr *tracer) (*env, error) {
	w := cfg.w
	e := &env{dir: filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)), clientReg: obs.NewRegistry()}
	dep, err := newDeployment(w, e.dir, cells)
	if err != nil {
		return nil, err
	}
	e.dep = dep
	users := newUsers(w, pop)
	e.drv = &loadgen{w: w, users: users, workers: cfg.workers, fixtureDays: w.fixtureDays}

	if err := dep.open(); err != nil {
		return nil, err
	}
	if len(dep.nodes) > 1 {
		// Followers must be serving for the fixture to replicate.
		if err := dep.serve(); err != nil {
			return nil, err
		}
	}
	if err := populate(cfg, dep, users); err != nil {
		return nil, err
	}
	if err := dep.close(); err != nil {
		return nil, err
	}
	if err := dep.open(); err != nil {
		return nil, err
	}
	if tr != nil {
		dep.wrap = tr.server
	}
	if err := dep.serve(); err != nil {
		return nil, err
	}

	e.transport = &http.Transport{
		MaxIdleConnsPerHost: openLoopWorkers,
		MaxConnsPerHost:     openLoopWorkers,
		IdleConnTimeout:     time.Minute,
	}
	wire, err := cloud.ParseWireCodec(w.wire)
	if err != nil {
		return nil, err
	}
	targets := dep.targets()
	for _, u := range users {
		var rt http.RoundTripper = e.transport
		if tr != nil {
			rt = &transport{t: tr, u: u, next: e.transport}
		}
		opts := []cloud.ClientOption{
			cloud.WithRetryPolicy(cloud.RetryPolicy{MaxAttempts: 1, PerTryTimeout: 30 * time.Second}),
			cloud.WithWireCodec(wire),
			cloud.WithClientMetrics(e.clientReg),
		}
		if len(targets) > 1 {
			opts = append(opts, cloud.WithCluster(targets))
		}
		// The base URL is the user's ring owner: Client.StreamObservations
		// posts to the base URL without consulting the ring, and a stream
		// redirected to another port loses its Authorization header.
		base := dep.owner(cloud.StableUserID(u.imei, u.email)).url()
		u.client = cloud.NewClient(base, u.imei, u.email, &http.Client{Transport: rt}, opts...)
	}
	if err := e.drv.register(); err != nil {
		return nil, err
	}
	for _, u := range users {
		if got := u.client.UserID(); got != u.id {
			return nil, fmt.Errorf("device %s registered as %s, fixture wrote %s", u.imei, got, u.id)
		}
	}
	warm := e.drv.runPhase(ph.warmup, false, cfg.workers, 0)
	if f := failures(warm.results); f != "" {
		cfg.logf("warm-up failures: %s", f)
	}
	return e, nil
}

// newUsers makes the workload's users with the load population's
// identities; user j draws its data from template j mod templates.
func newUsers(w *workload, pop *population) []*user {
	users := make([]*user, w.users)
	for j := range users {
		_, imei, email := load.UserIdentity(j)
		users[j] = &user{imei: imei, email: email, tmpl: pop.templates[j%len(pop.templates)], acked: map[string]*profile.DayProfile{}}
	}
	return users
}

// populate writes each user's fixture through Store.Register,
// Store.SetPlaces and Store.PutProfile on the user's owning node, and
// records each user's server ID in u.id.
func populate(cfg *config, dep *deployment, users []*user) error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for g := 0; g < cfg.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(users) {
					return
				}
				u := users[j]
				n := dep.owner(cloud.StableUserID(u.imei, u.email))
				reg, err := n.store.Register(u.imei, u.email)
				if err != nil {
					fail(fmt.Errorf("fixture register %d: %w", j, err))
					return
				}
				u.id = reg.UserID
				if len(u.tmpl.places) > 0 {
					if err := n.store.SetPlaces(u.id, u.tmpl.places); err != nil {
						fail(fmt.Errorf("fixture places %s: %w", u.id, err))
						return
					}
					u.hasPlaces = true
				}
				for k := 0; k < cfg.w.fixtureDays; k++ {
					p := u.tmpl.profileDay(k, u.id)
					if err := n.store.PutProfile(u.id, p); err != nil {
						fail(fmt.Errorf("fixture profile %s %s: %w", u.id, p.Date, err))
						return
					}
					u.acked[p.Date] = p
				}
				u.profDays = cfg.w.fixtureDays
			}
		}()
	}
	wg.Wait()
	return first
}

// checkDurable verifies every acknowledged profile of every user is
// readable and equal through s, for the users whose data s should hold.
func checkDurable(s *cloud.Store, users []*user, holds func(*user) bool, what string) []string {
	var bad []string
	for _, u := range users {
		if !holds(u) {
			continue
		}
		for date, want := range u.acked {
			got, ok := s.Profile(u.id, date)
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: %s profile %s lost", what, u.id, date))
			} else if !sameProfile(got, want) {
				bad = append(bad, fmt.Sprintf("%s: %s profile %s differs", what, u.id, date))
			}
			if len(bad) >= 10 {
				return bad
			}
		}
	}
	return bad
}

func sameProfile(a, b *profile.DayProfile) bool {
	if a.UserID != b.UserID || a.Date != b.Date || len(a.Places) != len(b.Places) {
		return false
	}
	for i := range a.Places {
		x, y := a.Places[i], b.Places[i]
		if x.PlaceID != y.PlaceID || x.Label != y.Label || !x.Arrive.Equal(y.Arrive) || !x.Depart.Equal(y.Depart) {
			return false
		}
	}
	return true
}

// reopen times cloud.OpenStore on each node's post-run directory and runs
// the durability checks on the reopened stores. It returns the nodes'
// open times summed, a restart of one node after the other, and the
// registry of each reopened store.
func reopen(cfg *config, dep *deployment, users []*user, check bool) (time.Duration, []*obs.Registry, []string, error) {
	var total time.Duration
	var regs []*obs.Registry
	var bad []string
	for _, n := range dep.nodes {
		reg := obs.NewRegistry()
		sc := storeConfig(cfg.w, reg)
		// Every open starts from a collected heap, not from the last
		// open's garbage.
		runtime.GC()
		t0 := time.Now()
		s, err := cloud.OpenStore(n.dir, sc)
		d := time.Since(t0)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("reopen %s: %w", n.id, err)
		}
		total += d
		regs = append(regs, reg)
		if check {
			if got := s.UserCount(); got < len(users) {
				bad = append(bad, fmt.Sprintf("%s: %d of %d registered users after reopen", n.id, got, len(users)))
			}
			bad = append(bad, checkDurable(s, users, func(u *user) bool { return dep.owner(u.id) == n }, n.id+" primary")...)
			if len(dep.nodes) > 1 {
				bad = append(bad, checkDurable(s, users, func(u *user) bool { return dep.follower(u.id) == n }, n.id+" follower")...)
			}
		}
		if err := s.Close(); err != nil {
			return 0, nil, nil, fmt.Errorf("close reopened %s: %w", n.id, err)
		}
	}
	return total, regs, bad, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
