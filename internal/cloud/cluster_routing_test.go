package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/faultnet"
	"repro/internal/obs"
)

// Routing and failover behavior, pinned to exact metric deltas: the server
// gate's serve/proxy/redirect decisions, the client router's redirect
// adoption on ring change, and conn-error failovers tied one-to-one to
// faultnet's injected-fault ground truth.

func clusterNodeByID(t *testing.T, nodes []*chaosNode, id string) *chaosNode {
	t.Helper()
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	t.Fatalf("no node %s", id)
	return nil
}

func rawRegister(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{IMEI: "route-imei-1", Email: "route@example.com"})
	req, err := http.NewRequest("POST", url+PathRegister, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestClusterGateRouting pins the server-side gate decision table: owner
// serves, follower-of-owner proxies (one hop), anyone else redirects with
// the owner's URL, keyless requests are served locally, and a proxied
// request for a key this node does not own bounces 421 (the hop is not a
// license to serve someone else's user) — each with its exact
// pci_cluster_* delta.
func TestClusterGateRouting(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	uid := StableUserID("route-imei-1", "route@example.com")
	ring := nodes[0].cn.Ring()
	ownerID := ring.PrimaryID(uid)
	followerID, ok := ring.FollowerID(ownerID)
	if !ok {
		t.Fatalf("no follower for %s", ownerID)
	}
	owner := clusterNodeByID(t, nodes, ownerID)
	follower := clusterNodeByID(t, nodes, followerID)
	var third *chaosNode
	for _, n := range nodes {
		if n.id != ownerID && n.id != followerID {
			third = n
		}
	}

	key := map[string]string{cluster.HeaderKey: uid}

	// Owner serves directly; no routing counters move.
	if resp := rawRegister(t, owner.url, key); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner: status %d", resp.StatusCode)
	}
	// Follower-of-owner proxies the request to the owner, one hop.
	if resp := rawRegister(t, follower.url, key); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower proxy: status %d", resp.StatusCode)
	}
	if got := follower.reg.Counter("pci_cluster_proxied_total").Value(); got != 1 {
		t.Fatalf("follower proxied counter = %d, want 1", got)
	}
	// Any other node redirects, naming the owner.
	resp := rawRegister(t, third.url, key)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("third node: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.HeaderOwner); got != owner.url {
		t.Fatalf("redirect owner = %q, want %q", got, owner.url)
	}
	if got := third.reg.Counter("pci_cluster_misrouted_total").Value(); got != 1 {
		t.Fatalf("third misrouted counter = %d, want 1", got)
	}
	// Keyless requests (pre-cluster clients) are served wherever they land.
	if resp := rawRegister(t, third.url, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyless: status %d", resp.StatusCode)
	}
	// A proxied request is still ownership-checked: a hop off a stale ring
	// must not land a write on a non-owner. It is never proxied a second
	// time (single hop) — it bounces 421 naming the real owner, for the
	// proxying node to relay.
	hopped := map[string]string{cluster.HeaderKey: uid, cluster.HeaderProxied: "1"}
	resp = rawRegister(t, third.url, hopped)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("proxied flag: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.HeaderOwner); got != owner.url {
		t.Fatalf("proxied bounce owner = %q, want %q", got, owner.url)
	}
	if got := third.reg.Counter("pci_cluster_misrouted_total").Value(); got != 2 {
		t.Fatalf("third misrouted counter = %d, want 2", got)
	}
	// A proxied request for a key this node DOES own is served (the normal
	// proxy hop terminates here).
	ownerHop := map[string]string{cluster.HeaderKey: uid, cluster.HeaderProxied: "1"}
	if resp := rawRegister(t, owner.url, ownerHop); resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied-to-owner: status %d", resp.StatusCode)
	}
	if got := owner.reg.Counter("pci_cluster_proxied_total").Value() +
		owner.reg.Counter("pci_cluster_misrouted_total").Value(); got != 0 {
		t.Fatalf("owner routing counters = %d, want 0", got)
	}
}

// TestClusterLeaveHandoffRedirect pins the ring-change path end to end: a
// coordinator Leave hands the departing node's users off to their new
// owners, a client holding the stale ring gets exactly one 421, adopts the
// owner, replays, and reads back the handed-off profile intact.
func TestClusterLeaveHandoffRedirect(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	coord := cluster.NewCoordinator([]cluster.Node{
		{ID: nodes[0].id, URL: nodes[0].url},
		{ID: nodes[1].id, URL: nodes[1].url},
		{ID: nodes[2].id, URL: nodes[2].url},
	}, cluster.DefaultVNodes, nil, t.Logf)
	defer coord.Stop()

	imei, email := "leave-imei-1", "leave@example.com"
	uid := StableUserID(imei, email)
	creg := obs.NewRegistry()
	client := NewClient(urls[0], imei, email, &http.Client{Timeout: 5 * time.Second},
		WithCluster(urls),
		WithClientMetrics(creg),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond}))
	if err := client.Register(); err != nil {
		t.Fatal(err)
	}
	date := "2014-05-02"
	if err := client.SyncProfile(chaosProfile(uid, date)); err != nil {
		t.Fatal(err)
	}

	oldOwnerID := nodes[0].cn.Ring().PrimaryID(uid)
	oldOwner := clusterNodeByID(t, nodes, oldOwnerID)
	redirectsBefore := creg.Counter("client_cluster_redirects_total").Value()
	misroutedBefore := oldOwner.reg.Counter("pci_cluster_misrouted_total").Value()

	// Leave is synchronous through AdoptRing: when it returns, the
	// departing node has exported its users to their new owners.
	if err := coord.Leave(oldOwnerID); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := oldOwner.reg.Counter("pci_cluster_handoff_users_total").Value(); got < 1 {
		t.Fatalf("leaver handoff counter = %d, want >= 1", got)
	}
	newOwnerID := coord.Ring().PrimaryID(uid)
	if newOwnerID == oldOwnerID {
		t.Fatalf("owner did not move off %s", oldOwnerID)
	}

	// The client still holds ring v1, so its next call lands on the old
	// owner: exactly one 421, owner adopted, whole call replayed.
	got, err := client.ProfileRange("2014-05-01", "2014-05-03")
	if err != nil {
		t.Fatalf("post-leave read: %v", err)
	}
	if len(got) != 1 || got[0].Date != date {
		t.Fatalf("post-leave read returned %d profiles, want the handed-off one", len(got))
	}
	want, _ := json.Marshal(chaosProfile(uid, date))
	gotJSON, _ := json.Marshal(got[0])
	if string(gotJSON) != string(want) {
		t.Fatalf("handed-off profile mutated:\ngot  %s\nwant %s", gotJSON, want)
	}
	if d := creg.Counter("client_cluster_redirects_total").Value() - redirectsBefore; d != 1 {
		t.Fatalf("client redirects delta = %d, want 1", d)
	}
	if d := oldOwner.reg.Counter("pci_cluster_misrouted_total").Value() - misroutedBefore; d != 1 {
		t.Fatalf("old owner misrouted delta = %d, want 1", d)
	}
	// The old owner no longer holds the user locally.
	if oldOwner.cn.Store().UserCount() != 0 {
		t.Fatalf("leaver still holds %d users after handoff", oldOwner.cn.Store().UserCount())
	}
}

// TestClusterFailoverMetricsPinned ties the client's failover counter to
// faultnet's ground truth: with a stable ring, every injected connection
// error and synthesized 5xx produces exactly one candidate failover — no
// more, no fewer — and zero redirects.
func TestClusterFailoverMetricsPinned(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}

	const clients = 4
	var transports []*faultnet.Transport
	var cs []*Client
	var cregs []*obs.Registry
	for i := 0; i < clients; i++ {
		ft := faultnet.Wrap(nil, faultnet.Config{
			Seed:            int64(7000 + i),
			ConnErrorRate:   0.15,
			ServerErrorRate: 0.1,
			BurstLen:        2,
			Sleep:           func(time.Duration) {},
			// Ring refreshes are swallowed by the router (stale ring kept),
			// so faults there would break the one-fault-one-failover pin.
			Exempt: func(r *http.Request) bool {
				return strings.HasPrefix(r.URL.Path, cluster.PathRing)
			},
		})
		reg := obs.NewRegistry()
		c := NewClient(urls[i%len(urls)], fmt.Sprintf("pin-imei-%d", i), fmt.Sprintf("pin-%d@example.com", i),
			&http.Client{Transport: ft, Timeout: 5 * time.Second},
			WithCluster(urls),
			WithClientMetrics(reg),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
		transports = append(transports, ft)
		cs = append(cs, c)
		cregs = append(cregs, reg)
		mustEventually(t, "register", c.Register)
	}
	for r := 0; r < 8; r++ {
		date := fmt.Sprintf("2014-06-%02d", 10+r)
		for i, c := range cs {
			uid := StableUserID(fmt.Sprintf("pin-imei-%d", i), fmt.Sprintf("pin-%d@example.com", i))
			mustEventually(t, "write", func() error { return c.SyncProfile(chaosProfile(uid, date)) })
			mustEventually(t, "read", func() error {
				_, err := c.ProfileRange(date, date)
				return err
			})
		}
	}

	totalFaults, totalFailovers, totalRedirects := 0, uint64(0), uint64(0)
	for i := range cs {
		st := transports[i].Stats()
		faults := st.ConnErrors + st.ServerError
		failovers := cregs[i].Counter("client_cluster_failovers_total").Value()
		totalFaults += faults
		totalFailovers += failovers
		totalRedirects += cregs[i].Counter("client_cluster_redirects_total").Value()
		if uint64(faults) != failovers {
			t.Errorf("client %d: %d injected faults (%d conn, %d 5xx) but %d failovers",
				i, faults, st.ConnErrors, st.ServerError, failovers)
		}
	}
	if totalFaults == 0 {
		t.Fatal("faultnet injected nothing; pin is vacuous")
	}
	// Failing over past the owner's follower lands on a peer that answers
	// 421, so redirects do occur on a stable ring — but every one the
	// clients observed must match a 421 some node issued, one to one.
	var misrouted uint64
	for _, n := range nodes {
		misrouted += n.reg.Counter("pci_cluster_misrouted_total").Value()
	}
	if totalRedirects != misrouted {
		t.Fatalf("clients saw %d redirects but nodes issued %d 421s", totalRedirects, misrouted)
	}
	t.Logf("pinned %d injected faults to %d failovers and %d redirects to %d 421s across %d clients",
		totalFaults, totalFailovers, totalRedirects, misrouted, clients)

	// Replication accounting under the same load: once every shipper
	// drains, batch-shipped and batch-applied record counts agree across
	// the cluster (initial resyncs shipped zero records: empty stores).
	deadline := time.Now().Add(10 * time.Second)
	for {
		lag := uint64(0)
		for _, n := range nodes {
			lag += n.cn.Lag()
		}
		if lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shippers never drained (lag %d)", lag)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var shipped, applied uint64
	for _, n := range nodes {
		shipped += n.reg.Counter("pci_repl_shipped_records_total").Value()
		applied += n.reg.Counter("pci_repl_applied_records_total").Value()
	}
	if shipped == 0 || shipped != applied {
		t.Fatalf("repl accounting: shipped %d != applied %d", shipped, applied)
	}
}

// ringlessTransport refuses the ring endpoint, so the client router never
// learns the ring and walks its targets in the order given.
type ringlessTransport struct{}

func (ringlessTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == cluster.PathRing {
		return nil, errors.New("ring endpoint unreachable")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterRoutesStreamsAndSubscriptions pins that streams, discover and
// subscriptions ride the same routed, authenticated attempt as every other
// call, on both codecs. The client's base URL and first target is a node
// that neither owns the user nor follows its owner, and the client has no
// ring, so each operation lands there first: it must follow the 421 to the
// owner (one client redirect, one misrouted count on that node) instead of
// being served — and rejected 401 — by a node that never issued its token.
func TestClusterRoutesStreamsAndSubscriptions(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	for _, wc := range []WireCodec{WireJSON, WireBinary} {
		t.Run(wc.String(), func(t *testing.T) {
			imei, email := "route-stream-"+wc.String(), "route-stream@example.com"
			uid := StableUserID(imei, email)
			ring := nodes[0].cn.Ring()
			owner := clusterNodeByID(t, nodes, ring.PrimaryID(uid))
			followerID, _ := ring.FollowerID(owner.id)
			follower := clusterNodeByID(t, nodes, followerID)
			var third *chaosNode
			for _, n := range nodes {
				if n != owner && n != follower {
					third = n
				}
			}
			creg := obs.NewRegistry()
			c := NewClient(third.url, imei, email, &http.Client{Transport: ringlessTransport{}, Timeout: 10 * time.Second},
				WithCluster([]string{third.url, follower.url, owner.url}),
				WithWireCodec(wc),
				WithClientMetrics(creg),
				WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
			redirects := creg.Counter("client_cluster_redirects_total")
			misrouted := third.reg.Counter("pci_cluster_misrouted_total")
			// hop runs op from the non-owner, forgetting the owner an earlier
			// redirect taught the client, and requires exactly one redirect.
			hop := func(what string, op func() error) {
				t.Helper()
				c.router.adopt("")
				r0, m0 := redirects.Value(), misrouted.Value()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if d := redirects.Value() - r0; d != 1 {
					t.Errorf("%s: client redirects delta = %d, want 1", what, d)
				}
				if d := misrouted.Value() - m0; d != 1 {
					t.Errorf("%s: non-owner misrouted delta = %d, want 1", what, d)
				}
			}

			hop("register", c.Register)
			var sub *Subscription
			hop("subscribe", func() error {
				var err error
				if sub, err = c.Subscribe(t.Context()); err != nil {
					return err
				}
				// Attached once a probe published on the owner arrives.
				deadline := time.After(10 * time.Second)
				for {
					owner.srv.Hub().Publish(events.Event{Type: events.KindPlaceEntry, UserID: uid, Label: "probe"})
					select {
					case _, ok := <-sub.C:
						if !ok {
							return fmt.Errorf("subscription ended: %v", sub.Err())
						}
						return nil
					case <-deadline:
						return errors.New("no probe event")
					case <-time.After(20 * time.Millisecond):
					}
				}
			})
			defer sub.Close()

			trace := synthDays(2)
			hop("discover", func() error {
				_, err := c.DiscoverPlaces(trace[:obsPerSynthDay])
				return err
			})
			var res StreamResult
			hop("stream", func() error {
				var err error
				res, err = c.StreamObservations(t.Context(), trace, 0)
				return err
			})
			if res.Appended != obsPerSynthDay || res.Events == 0 {
				t.Fatalf("stream appended %d observations and %d events, want %d and some", res.Appended, res.Events, obsPerSynthDay)
			}
			if st := owner.cn.Store().TraceStatusFor(uid); st.Len != int64(len(trace)) || st.Hash != TraceHash(trace) {
				t.Errorf("owner trace = (%d, %x), want (%d, %x)", st.Len, st.Hash, len(trace), TraceHash(trace))
			}
			deadline := time.After(10 * time.Second)
			for {
				select {
				case ev, ok := <-sub.C:
					if !ok {
						t.Fatalf("subscription ended: %v", sub.Err())
					}
					if ev.Label != "probe" && ev.UserID == uid {
						return
					}
				case <-deadline:
					t.Fatal("subscriber never saw the stream's place event")
				}
			}
		})
	}
}
