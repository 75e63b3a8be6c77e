package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries a request's span ID from the benchmark's transport to
// its server wrapper.
const spanHeader = "X-Perfbench-Span"

const (
	kindClient    = "client"
	kindTransport = "transport"
	kindServer    = "server"
)

// span is one timed interval around a call into a layer. The three spans
// of a request share its ID: the cloud.Client call, inside it each HTTP
// round trip, inside that each server handler run.
type span struct {
	ID    uint64 `json:"id"`
	Kind  string `json:"kind"`
	Route string `json:"route,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It records only while
// on; off, its transport and server wrapper pass calls straight through.
type tracer struct {
	base time.Time
	on   atomic.Bool
	mu   sync.Mutex
	sp   []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// set turns recording on or off; a nil tracer stays off.
func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.sp = append(t.sp, s)
	t.mu.Unlock()
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) client(id uint64, route string, start, end time.Time) {
	t.add(span{ID: id, Kind: kindClient, Route: route, Start: t.ns(start), End: t.ns(end)})
}

// transport is a user's RoundTripper: it stamps the user's current span ID
// on the request and times the round trip until the response body is
// drained and closed.
type transport struct {
	t    *tracer
	u    *user
	next http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tr.t.active() {
		return tr.next.RoundTrip(req)
	}
	id := tr.u.span.Load()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := tr.next.RoundTrip(req)
	if err != nil {
		tr.t.add(span{ID: id, Kind: kindTransport, Start: tr.t.ns(start), End: tr.t.ns(time.Now())})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, id: id, start: start}
	return resp, nil
}

// spanBody ends the transport span when the caller closes the body, after
// draining it: the server writes the last bytes only after its handler
// returns, so the drained body's end lies after the server span's.
type spanBody struct {
	io.ReadCloser
	t     *tracer
	id    uint64
	start time.Time
	once  sync.Once
}

func (b *spanBody) Close() error {
	_, _ = io.Copy(io.Discard, b.ReadCloser)
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.t.add(span{ID: b.id, Kind: kindTransport, Start: b.t.ns(b.start), End: b.t.ns(time.Now())})
	})
	return err
}

// server wraps a node's handler in the server span.
func (t *tracer) server(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil || !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{ID: id, Kind: kindServer, Start: t.ns(start), End: t.ns(time.Now())})
	})
}

// breakdown is one request's time split by layer.
type breakdown struct {
	route     string
	client    time.Duration
	transport time.Duration
	server    time.Duration
	// nested is false if a server span lies outside every transport span
	// or a transport span outside the client span.
	nested bool
}

func (b breakdown) clientSelf() time.Duration { return b.client - b.transport }
func (b breakdown) netSelf() time.Duration    { return b.transport - b.server }

// breakdowns groups the spans by request. A request's transport time is the
// sum of its round trips (a redirect makes two); its server time is the
// union of its server spans, so a proxied request's inner handler, which
// runs inside the outer one, is not counted twice.
func (t *tracer) breakdowns() []breakdown {
	t.mu.Lock()
	spans := append([]span(nil), t.sp...)
	t.mu.Unlock()
	byID := map[uint64][]span{}
	for _, s := range spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	ids := make([]uint64, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []breakdown
	for _, id := range ids {
		group := byID[id]
		var c *span
		var tr, sv []span
		for i := range group {
			switch group[i].Kind {
			case kindClient:
				c = &group[i]
			case kindTransport:
				tr = append(tr, group[i])
			case kindServer:
				sv = append(sv, group[i])
			}
		}
		if c == nil {
			continue
		}
		b := breakdown{route: c.Route, client: time.Duration(c.End - c.Start), nested: true}
		for _, s := range tr {
			b.transport += time.Duration(s.End - s.Start)
			if s.Start < c.Start || s.End > c.End {
				b.nested = false
			}
		}
		for _, s := range sv {
			if !within(s, tr) {
				b.nested = false
			}
		}
		b.server = unionLen(sv)
		out = append(out, b)
	}
	return out
}

func within(s span, outer []span) bool {
	for _, o := range outer {
		if s.Start >= o.Start && s.End <= o.End {
			return true
		}
	}
	return false
}

func unionLen(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range spans {
		if !open || s.Start > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = s.Start, s.End, true
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.sp {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
