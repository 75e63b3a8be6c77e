package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/gsm"
	"repro/internal/load"
	"repro/internal/profile"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/world"
)

// templateDays is the length of a template user's synthesised itinerary.
// A whole week, so that repeating it keeps weekdays on weekdays.
const templateDays = 7

const week = templateDays * 24 * time.Hour

// template is one user synthesised by the load population: a week of GSM
// observations split by day, the week's day profiles, and the places GCA
// discovers in the week's trace.
type template struct {
	days        [templateDays][]trace.GSMObservation
	profiles    []*profile.DayProfile
	places      []cloud.PlaceWire
	queryPlaces []string
}

// population is the run's generated input: the template users and the
// world their traces were sampled in.
type population struct {
	world     *world.World
	templates []*template
}

// synthesize builds the workload's template users from the seed, on
// `workers` goroutines.
func synthesize(w *workload, seed int64, workers int) (*population, error) {
	pop := load.NewPopulation(w.spec(1, 1), load.Key{Seed: seed})
	out := &population{world: pop.World(), templates: make([]*template, w.templates)}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int, w.templates) // one send per template
	)
	for i := 0; i < w.templates; i++ {
		next <- i
	}
	close(next)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t, err := buildTemplate(pop, i)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				out.templates[i] = t
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}

func buildTemplate(pop *load.Population, i int) (*template, error) {
	u, err := pop.User(i)
	if err != nil {
		return nil, err
	}
	t := &template{profiles: u.Profiles}
	for _, o := range u.Trace {
		d := int(o.At.Sub(simclock.Epoch) / (24 * time.Hour))
		if d < 0 || d >= templateDays {
			return nil, fmt.Errorf("template %d: observation at %s outside its week", i, o.At)
		}
		t.days[d] = append(t.days[d], o)
	}
	for d, obs := range t.days {
		if len(obs) == 0 {
			return nil, fmt.Errorf("template %d: no observations on day %d", i, d)
		}
	}
	for _, p := range gsm.Discover(u.Trace, gsm.DefaultParams()).Places {
		t.places = append(t.places, cloud.PlaceToWire(p))
	}
	seen := map[string]bool{}
	for _, p := range u.Profiles {
		for _, id := range p.DistinctPlaces() {
			if !seen[id] {
				seen[id] = true
				t.queryPlaces = append(t.queryPlaces, id)
			}
		}
	}
	sort.Strings(t.queryPlaces)
	if len(t.profiles) == 0 || len(t.queryPlaces) == 0 {
		return nil, fmt.Errorf("template %d: no profiled places", i)
	}
	return t, nil
}

// obsDay returns day d of the template's trace repeated d/7 weeks later.
func (t *template) obsDay(d int) []trace.GSMObservation {
	src := t.days[d%templateDays]
	shift := time.Duration(d/templateDays) * week
	out := make([]trace.GSMObservation, len(src))
	for i, o := range src {
		o.At = o.At.Add(shift)
		out[i] = o
	}
	return out
}

// profileDay returns the user's k-th day profile: the template's profiles
// in date order, repeated a week later each time round. Every k has its own
// date, so no two puts of one user overwrite each other.
func (t *template) profileDay(k int, uid string) *profile.DayProfile {
	src := t.profiles[k%len(t.profiles)]
	shift := time.Duration(k/len(t.profiles)) * week
	day, err := time.Parse(profile.DateFormat, src.Date)
	if err != nil {
		// Template profiles passed profile.Validate when synthesised.
		panic(fmt.Sprintf("perfbench: template profile date %q: %v", src.Date, err))
	}
	p := &profile.DayProfile{
		UserID: uid,
		Date:   day.Add(shift).Format(profile.DateFormat),
		Places: make([]profile.PlaceVisit, len(src.Places)),
	}
	for i, v := range src.Places {
		v.Arrive = v.Arrive.Add(shift)
		v.Depart = v.Depart.Add(shift)
		p.Places[i] = v
	}
	return p
}

// rangeWindow is the profile_range read's window: the last `days` days the
// fixture covers, so the answer is never empty.
func rangeWindow(fixtureDays, days int) (from, to string) {
	end := simclock.Epoch.AddDate(0, 0, fixtureDays-1)
	return end.AddDate(0, 0, 1-days).Format(profile.DateFormat), end.Format(profile.DateFormat)
}
