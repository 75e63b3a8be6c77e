package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// node is one PCI process's worth of state, booted in this process on a
// real loopback listener the way cmd/pmware-cloud boots it.
type node struct {
	id   string
	dir  string
	addr string
	// reg holds the store's storage_*, analytics_* and popular_* families
	// and, on a cluster node, the pci_repl_* and pci_cluster_* families.
	reg *obs.Registry

	store  *cloud.Store
	cnode  *cloud.ClusterNode
	server *cloud.Server
	http   *http.Server
	served chan struct{}
}

func (n *node) url() string { return "http://" + n.addr }

// storeConfig is cmd/pmware-cloud's default store configuration (fsync
// interval, default shard count) with the workload's compaction cadence.
func storeConfig(w *workload, reg *obs.Registry) cloud.StoreConfig {
	return cloud.StoreConfig{
		Shards:       cloud.DefaultShards,
		Sync:         storage.SyncInterval,
		SyncEvery:    storage.DefaultSyncEvery,
		CompactEvery: w.compactEvery,
		Metrics:      reg,
	}
}

// deployment is the workload's set of nodes plus what they share.
type deployment struct {
	w     *workload
	cells *cloud.CellDatabase
	nodes []*node
	// wrap, when set, wraps each node's handler (the traced run's server
	// span).
	wrap func(http.Handler) http.Handler
	// ring is the cluster's ring as of the last open (nil on one node).
	ring *cluster.Ring
}

func newDeployment(w *workload, root string, cells *cloud.CellDatabase) (*deployment, error) {
	d := &deployment{w: w, cells: cells}
	for i := 0; i < w.nodes; i++ {
		n := &node{id: fmt.Sprintf("n%d", i), dir: filepath.Join(root, fmt.Sprintf("n%d", i))}
		// Reserve the node's port now: cluster members must know each
		// other's URLs before any of them opens its store.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		n.addr = ln.Addr().String()
		ln.Close()
		d.nodes = append(d.nodes, n)
	}
	return d, nil
}

func (d *deployment) peers() []cluster.Node {
	var out []cluster.Node
	for _, n := range d.nodes {
		out = append(out, cluster.Node{ID: n.id, URL: n.url()})
	}
	return out
}

// open opens every node's store (recovering whatever its directory holds)
// without serving HTTP.
func (d *deployment) open() error {
	for _, n := range d.nodes {
		n.reg = obs.NewRegistry()
		cfg := storeConfig(d.w, n.reg)
		if len(d.nodes) == 1 {
			s, err := cloud.OpenStore(n.dir, cfg)
			if err != nil {
				return err
			}
			n.store = s
			continue
		}
		self := cluster.Node{ID: n.id, URL: n.url()}
		cn, err := cloud.NewClusterNode(n.dir, cfg, cloud.ClusterNodeConfig{
			Self:    self,
			Peers:   d.peers(),
			ReplDir: filepath.Join(n.dir, "repl"),
			Metrics: n.reg,
		})
		if err != nil {
			return err
		}
		n.cnode, n.store = cn, cn.Store()
		d.ring = cn.Ring()
	}
	return nil
}

// serve starts every node's API server on its reserved port.
func (d *deployment) serve() error {
	for _, n := range d.nodes {
		opts := []cloud.ServerOption{
			cloud.WithCellDatabase(d.cells),
			cloud.WithDiscoverPool(cloud.DefaultDiscoverWorkers, cloud.DefaultDiscoverQueue),
			cloud.WithMaxBodyBytes(cloud.DefaultMaxBodyBytes),
		}
		if n.cnode != nil {
			opts = append(opts, cloud.WithClusterNode(n.cnode))
		}
		n.server = cloud.NewServer(n.store, opts...)
		var h http.Handler = n.server.Handler()
		if d.wrap != nil {
			h = d.wrap(h)
		}
		ln, err := listen(n.addr)
		if err != nil {
			return err
		}
		n.http = &http.Server{Handler: h}
		n.served = make(chan struct{})
		go func(n *node) {
			defer close(n.served)
			_ = n.http.Serve(ln)
		}(n)
	}
	return nil
}

// listen binds addr, retrying briefly: the previous boot's listener on the
// same port may still be closing.
func listen(addr string) (net.Listener, error) {
	var err error
	for i := 0; i < 50; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("listen %s: %w", addr, err)
}

// close shuts down in cmd/pmware-cloud's order: HTTP first, then the
// server's workers, the cluster node, and last the store (which compacts
// and fsyncs).
func (d *deployment) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, n := range d.nodes {
		if n.http != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			keep(n.http.Shutdown(ctx))
			cancel()
			<-n.served
			n.http = nil
		}
		if n.server != nil {
			n.server.Close()
			n.server = nil
		}
	}
	for _, n := range d.nodes {
		if n.cnode != nil {
			keep(n.cnode.Close())
			n.cnode = nil
		}
	}
	for _, n := range d.nodes {
		if n.store != nil {
			keep(n.store.Close())
			n.store = nil
		}
	}
	return first
}

// owner returns the node that owns uid: the ring primary on a cluster.
func (d *deployment) owner(uid string) *node {
	if len(d.nodes) == 1 {
		return d.nodes[0]
	}
	id := d.ring.PrimaryID(uid)
	for _, n := range d.nodes {
		if n.id == id {
			return n
		}
	}
	return d.nodes[0]
}

// follower returns the node holding uid's replica (nil on a single node).
func (d *deployment) follower(uid string) *node {
	if len(d.nodes) == 1 {
		return nil
	}
	f, ok := d.ring.FollowerID(d.ring.PrimaryID(uid))
	if !ok {
		return nil
	}
	for _, n := range d.nodes {
		if n.id == f {
			return n
		}
	}
	return nil
}

func (d *deployment) targets() []string {
	var out []string
	for _, n := range d.nodes {
		out = append(out, n.url())
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	return total, err
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", dir, err)
	}
}
