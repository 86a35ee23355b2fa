package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/shardcache"
	"cspm/internal/wal"
)

// blobCounter counts the replication blob pulls passing through it.
type blobCounter struct{ n atomic.Int64 }

func (c *blobCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/replication/blob") {
		c.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// deltaFleet is a leader on the islands graph with one replica whose
// replication pulls go through a blobCounter.
type deltaFleet struct {
	g       *graph.Graph
	ls, rs  *Server
	rdir    string // the replica tenant's checkpoint directory
	fetched *blobCounter
}

func newDeltaFleet(t *testing.T) *deltaFleet {
	t.Helper()
	f := &deltaFleet{g: dataset.Islands(dataset.DefaultIslands()), fetched: &blobCounter{}}
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := leader.Create("prod", f.g, nil); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)
	rroot := t.TempDir()
	replica := newReplicaHost(t, lhs.URL, HostOptions{
		RootDir:      rroot,
		FollowClient: &http.Client{Transport: f.fetched},
	})
	f.ls, _ = leader.Tenant("prod")
	var ok bool
	if f.rs, ok = replica.Tenant("prod"); !ok {
		t.Fatal("replica host did not mirror the prod namespace")
	}
	if err := f.rs.AwaitGeneration(ctxShort(t), 1); err != nil {
		t.Fatal(err)
	}
	f.rdir = wal.Layout{Root: rroot}.CheckpointDir("prod")
	return f
}

// editOneGroup adds an edge inside the component group of vertex 0, which
// changes that group's fingerprint and no other, and waits until the
// replica serves the leader's resulting generation.
func (f *deltaFleet) editOneGroup(t *testing.T) {
	t.Helper()
	g := f.ls.Snapshot().Graph
	groups := graph.AttrClosedComponents(g)
	for _, v := range groups.Members()[groups.Group[0]] {
		if v != 0 && !g.HasEdge(0, v) {
			if err := f.ls.SubmitMutations([]Mutation{{Op: OpAddEdge, U: 0, V: v}}); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if err := f.ls.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	gen := f.ls.Snapshot().Generation
	if err := f.rs.AwaitGeneration(ctxShort(t), gen); err != nil {
		t.Fatal(err)
	}
	if lsum, rsum := f.ls.Snapshot().ModelSHA256, f.rs.Snapshot().ModelSHA256; lsum != rsum {
		t.Fatalf("generation %d diverged: leader %s, replica %s", gen, lsum, rsum)
	}
}

// TestReplicaSyncFetchesOnlyChangedBlobs: a batch that dirties one group
// ships one blob, and the replica then keeps in memory exactly the entries
// of the generation it serves.
func TestReplicaSyncFetchesOnlyChangedBlobs(t *testing.T) {
	f := newDeltaFleet(t)
	groups := graph.AttrClosedComponents(f.g).Count
	if n := f.fetched.n.Load(); n != int64(groups) {
		t.Fatalf("bootstrap fetched %d blobs, want one per group (%d)", n, groups)
	}
	for i := range 2 {
		f.fetched.n.Store(0)
		f.editOneGroup(t)
		if n := f.fetched.n.Load(); n != 1 {
			t.Fatalf("edit %d: replica fetched %d blobs, want the one dirty group's", i, n)
		}
		if n := f.rs.cache.Len(); n != groups {
			t.Fatalf("edit %d: replica holds %d entries in memory, want this generation's %d", i, n, groups)
		}
	}
	if n := f.ls.cache.Len(); n <= groups {
		t.Fatalf("leader holds %d entries; the test needs stale ones beside the %d live groups", n, groups)
	}
}

// TestReplicaRefetchesTamperedLocalBlob: a local blob whose bytes no longer
// match the manifest is fetched again, never trusted.
func TestReplicaRefetchesTamperedLocalBlob(t *testing.T) {
	f := newDeltaFleet(t)
	man, err := shardcache.LoadManifest(f.rdir)
	if err != nil || man == nil {
		t.Fatalf("replica manifest: %v", err)
	}
	var victim string
	for name := range man.Blobs {
		victim = name
		break
	}
	path := filepath.Join(f.rdir, victim)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f.fetched.n.Store(0)
	f.editOneGroup(t)
	if n := f.fetched.n.Load(); n != 2 {
		t.Fatalf("replica fetched %d blobs, want the dirty group's and the tampered one", n)
	}
	if !localMatches(f.rdir, victim, man.Blobs[victim]) {
		t.Fatal("tampered blob was not replaced by the manifest's bytes")
	}
}
