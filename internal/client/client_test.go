package client_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"origami/internal/client"
	"origami/internal/kvstore"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/server"
)

func startOne(t *testing.T, n int, cache string) (*server.Cluster, *client.Client) {
	t.Helper()
	cl, err := server.StartCluster(n, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })
	return cl, sdk
}

func TestDialRequiresAddrs(t *testing.T) {
	if _, err := client.Dial(client.Config{}); err == nil {
		t.Error("dial with no addresses succeeded")
	}
}

func TestDialToDeadAddrStartsDisconnected(t *testing.T) {
	// A dead MDS must not block SDK start (it may be mid-failover); the
	// connection stays down and operations against it fail fast until it
	// returns.
	sdk, err := client.Dial(client.Config{
		Addrs:        []string{"127.0.0.1:1"},
		RetryBudget:  -1,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("lazy dial to closed port failed: %v", err)
	}
	defer sdk.Close()
	if err := sdk.RefreshMap(); err == nil {
		t.Error("RefreshMap against a dead cluster succeeded")
	}
}

func TestRefreshMapOnFreshCluster(t *testing.T) {
	_, sdk := startOne(t, 2, "off")
	if err := sdk.RefreshMap(); err != nil {
		t.Fatalf("RefreshMap: %v", err)
	}
}

func TestResolveRootOnly(t *testing.T) {
	_, sdk := startOne(t, 2, "off")
	chain, owner, err := sdk.Resolve("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || owner != 0 {
		t.Errorf("Resolve(/) = %d elements, owner %d", len(chain), owner)
	}
}

func TestStatErrorMentionsPath(t *testing.T) {
	_, sdk := startOne(t, 2, "off")
	_, err := sdk.Stat("/does/not/exist")
	if err == nil {
		t.Fatal("stat of missing path succeeded")
	}
	if !strings.Contains(err.Error(), "/does/not/exist") {
		t.Errorf("error %q does not mention the path", err)
	}
}

func TestCachedNegativeErrorMentionsPath(t *testing.T) {
	_, sdk := startOne(t, 1, "leases")
	if _, err := sdk.Stat("/does/not/exist"); err == nil {
		t.Fatal("stat of missing path succeeded")
	}
	// Second stat is served from the negative cache; the error shape must
	// stay the same for callers matching on the path or on ENOENT.
	_, err := sdk.Stat("/does/not/exist")
	if err == nil {
		t.Fatal("cached stat of missing path succeeded")
	}
	if !strings.Contains(err.Error(), "/does/not/exist") || !strings.Contains(err.Error(), "ENOENT") {
		t.Errorf("cached-negative error %q lacks path or ENOENT", err)
	}
}

func TestRenameMissingSource(t *testing.T) {
	_, sdk := startOne(t, 2, "off")
	if err := sdk.Rename("/ghost", "/elsewhere"); err == nil {
		t.Error("rename of missing source succeeded")
	}
}

// TestCrossShardRenameReadsSourceFromOwner: a cross-shard rename copies
// the source inode to the destination shard, so it must read that inode
// from the source's owner. A read replica of the source directory that
// lags the owner — a setattr and a remove it has not applied yet — must
// not leak into the destination.
func TestCrossShardRenameReadsSourceFromOwner(t *testing.T) {
	cl, sdk := startOne(t, 2, "off")
	dial := func() *client.Client {
		c, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.RefreshMap(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	src, err := sdk.Mkdir("/src")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := sdk.Mkdir("/dst")
	if err != nil {
		t.Fatal(err)
	}
	var files []*namespace.Inode
	for _, name := range []string{"/src/f1", "/src/f2"} {
		in, err := sdk.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, in)
	}
	if err := server.NewCoordinator(cl).Migrate(dst.Ino, 0, 1); err != nil {
		t.Fatal(err)
	}

	// MDS 1 serves /src from a replica frozen before the owner's setattr
	// of f1 and remove of f2.
	stale, err := mds.OpenStore(t.TempDir(), 1, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stale.Close() })
	for _, in := range append([]*namespace.Inode{src}, files...) {
		if err := stale.Put(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sdk.Setattr("/src/f1", 42, 0600); err != nil {
		t.Fatal(err)
	}
	if err := sdk.Remove("/src/f2"); err != nil {
		t.Fatal(err)
	}
	body, err := cl.Conn(0).Call(mds.MethodGetMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	version, pins, err := mds.DecodeMap(body)
	if err != nil {
		t.Fatal(err)
	}
	rep := mds.ReplicaMapEntry{Ino: src.Ino, Owner: 0, Epoch: 1, Replicas: []int{1}}
	for id := range cl.Services {
		if _, err := cl.Conn(id).Call(mds.MethodSetMap, mds.EncodeMap(version+1, pins, rep)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Services[1].SetReplicaProvider(func(ino namespace.Ino) *mds.Store {
		if ino == src.Ino {
			return stale
		}
		return nil
	})
	// The set-up really spreads reads of /src to the lagging replica.
	rdr := dial()
	for i := 0; i < 2; i++ {
		if _, err := rdr.Readdir("/src"); err != nil {
			t.Fatal(err)
		}
	}
	if cl.Services[1].Registry().Counter("replica.read.served").Value() == 0 {
		t.Fatal("no read of /src reached the replica")
	}

	// Fresh clients: each one's first spread read would pick the replica.
	if err := dial().Rename("/src/f1", "/dst/f1"); err != nil {
		t.Fatal(err)
	}
	moved, err := sdk.Stat("/dst/f1")
	if err != nil {
		t.Fatal(err)
	}
	if moved.Size != 42 || moved.Mode != 0600 {
		t.Errorf("moved f1 has size %d mode %o, want the acknowledged setattr's 42 %o", moved.Size, moved.Mode, 0600)
	}
	if err := dial().Rename("/src/f2", "/dst/f2"); err == nil || !strings.Contains(err.Error(), mds.CodeNoEnt) {
		t.Errorf("rename of removed f2 = %v, want ENOENT", err)
	}
	if _, err := sdk.Stat("/dst/f2"); err == nil || !strings.Contains(err.Error(), mds.CodeNoEnt) {
		t.Errorf("stat of /dst/f2 after the failed rename = %v, want ENOENT", err)
	}
}

// TestMapRefreshOncePerVersion: every lease grant names the map version
// its MDS serves, and a caching client refreshes its map once per newer
// version it sees — not once per response, and not for unrelated
// directories' lease churn.
func TestMapRefreshOncePerVersion(t *testing.T) {
	cl, sdk := startOne(t, 2, "leases")
	if _, err := sdk.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	b, err := sdk.Mkdir("/b")
	if err != nil {
		t.Fatal(err)
	}
	co := server.NewCoordinator(cl)
	getmaps := cl.Services[0].Registry().Counter("rpc.server.getmap.requests")
	for round, to := range []int{1, 0} {
		if err := co.Migrate(b.Ino, 1-to, to); err != nil {
			t.Fatal(err)
		}
		before := getmaps.Value()
		for i := 0; i < 5; i++ {
			if _, err := sdk.Create(fmt.Sprintf("/a/r%d-f%d", round, i)); err != nil {
				t.Fatal(err)
			}
			if _, err := sdk.Readdir("/a"); err != nil {
				t.Fatal(err)
			}
		}
		if got := getmaps.Value() - before; got != 1 {
			t.Errorf("round %d: %d map refreshes after one map change, want 1", round, got)
		}
		if got, want := sdk.MapVersion(), cl.Services[0].MapVersion(); got != want {
			t.Errorf("round %d: client map version %d, MDS serves %d", round, got, want)
		}
	}
}

// TestWarmCacheRPCCounts is the headline lease-cache property, proven by
// counting RPC frames: once the lease cache is warm, Stat (positive and
// negative) costs zero RPCs and Create costs exactly one.
func TestWarmCacheRPCCounts(t *testing.T) {
	_, sdk := startOne(t, 1, "leases")
	p := ""
	for _, c := range []string{"a", "b", "c", "d", "e"} {
		p += "/" + c
		if _, err := sdk.Mkdir(p); err != nil {
			t.Fatalf("mkdir %s: %v", p, err)
		}
	}
	if _, err := sdk.Create(p + "/leaf"); err != nil {
		t.Fatal(err)
	}

	// Warm the whole chain (one batched resolve), then measure.
	if _, err := sdk.Stat(p + "/leaf"); err != nil {
		t.Fatal(err)
	}
	before := sdk.RPCCount.Load()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := sdk.Stat(p + "/leaf"); err != nil {
			t.Fatal(err)
		}
	}
	if got := sdk.RPCCount.Load() - before; got != 0 {
		t.Errorf("warm stats cost %d RPCs over %d ops, want 0", got, n)
	}

	// Warm negative: first miss resolves and caches the absence, repeats
	// are free.
	if _, err := sdk.Stat(p + "/nope"); err == nil {
		t.Fatal("stat of missing entry succeeded")
	}
	before = sdk.RPCCount.Load()
	for i := 0; i < n; i++ {
		if _, err := sdk.Stat(p + "/nope"); err == nil {
			t.Fatal("stat of missing entry succeeded")
		}
	}
	if got := sdk.RPCCount.Load() - before; got != 0 {
		t.Errorf("warm negative stats cost %d RPCs over %d ops, want 0", got, n)
	}

	// Warm create: the parent chain resolves from cache, so only the
	// MethodBatch frame goes out — and the response's grant keeps the
	// cache warm (our own epoch bump must not flush it).
	before = sdk.RPCCount.Load()
	for i := 0; i < n; i++ {
		if _, err := sdk.Create(p + "/new" + string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := sdk.RPCCount.Load() - before; got != n {
		t.Errorf("warm creates cost %d RPCs over %d ops, want %d", got, n, n)
	}

	// And the creates left the cache warm: stats of the new entries and
	// the old leaf are still free.
	before = sdk.RPCCount.Load()
	if _, err := sdk.Stat(p + "/newa"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat(p + "/leaf"); err != nil {
		t.Fatal(err)
	}
	if got := sdk.RPCCount.Load() - before; got != 0 {
		t.Errorf("stats after own creates cost %d RPCs, want 0", got)
	}
}

// TestStalenessBoundAcrossClients: a mutation through one client must
// become visible to another, fully warm client within one RPC — the
// next server round trip piggybacks the bumped lease epoch — without
// waiting for the TTL.
func TestStalenessBoundAcrossClients(t *testing.T) {
	cl, writer := startOne(t, 1, "leases")
	reader, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.Close() })

	if _, err := writer.Mkdir("/shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Create("/shared/doomed"); err != nil {
		t.Fatal(err)
	}
	// Warm the reader on the entry.
	if _, err := reader.Stat("/shared/doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Stat("/shared/doomed"); err != nil {
		t.Fatal(err)
	}

	// The writer removes the entry; the reader's cache still holds it.
	if err := writer.Remove("/shared/doomed"); err != nil {
		t.Fatal(err)
	}

	// One RPC of any kind under the directory carries the bumped epoch.
	// Readdir goes to the server (it always does) and its grant trailer
	// must flush the reader's stale entry.
	if _, err := reader.Readdir("/shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Stat("/shared/doomed"); err == nil {
		t.Error("reader still sees a removed entry after observing a newer epoch")
	}
}

// TestTTLBoundsStalenessForIdleClient: a client that issues no RPCs at
// all (fully warm) must still converge once its lease TTL runs out.
func TestTTLBoundsStalenessForIdleClient(t *testing.T) {
	cl, err := server.StartCluster(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cl.Services[0].SetLeaseTTL(100 * time.Millisecond)
	writer, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { writer.Close() })
	reader, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "leases"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.Close() })

	if _, err := writer.Mkdir("/idle"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Create("/idle/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Stat("/idle/f"); err != nil {
		t.Fatal(err)
	}
	if err := writer.Remove("/idle/f"); err != nil {
		t.Fatal(err)
	}
	// No reader RPCs: the cached entry may serve up to the TTL, no longer.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := reader.Stat("/idle/f"); err != nil {
			break // converged
		}
		if time.Now().After(deadline) {
			t.Fatal("reader still serves a removed entry long past the lease TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestForkIsolatesCacheSharesTransports(t *testing.T) {
	_, sdk := startOne(t, 1, "leases")
	if _, err := sdk.Mkdir("/fk"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Create("/fk/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat("/fk/f"); err != nil {
		t.Fatal(err)
	}

	v := sdk.Fork()
	defer v.Close()
	// The fork starts cold: its first stat costs RPCs, counted on its own
	// counters, not the parent's.
	p0 := sdk.RPCCount.Load()
	if _, err := v.Stat("/fk/f"); err != nil {
		t.Fatal(err)
	}
	if v.RPCCount.Load() == 0 {
		t.Error("fork's cold stat cost no RPCs (cache not isolated)")
	}
	if sdk.RPCCount.Load() != p0 {
		t.Error("fork's RPCs landed on the parent's counter")
	}
	// Warm now, and free.
	b := v.RPCCount.Load()
	if _, err := v.Stat("/fk/f"); err != nil {
		t.Fatal(err)
	}
	if v.RPCCount.Load() != b {
		t.Error("fork's warm stat cost RPCs")
	}
	// Closing the fork must not kill the parent's connections.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Stat("/fk/f"); err != nil {
		t.Fatalf("parent broken after fork close: %v", err)
	}
}

func TestIdempotentRetryAfterTransientDisconnect(t *testing.T) {
	cl, err := server.StartCluster(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{
		Addrs:        cl.Addrs,
		RetryBudget:  5,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })

	// Sever the next two incoming requests, then recover.
	inj := rpc.NewRuleInjector(1, rpc.Rule{
		Point:  rpc.PointServerRecv,
		Count:  2,
		Action: rpc.FaultDisconnect,
	})
	cl.Services[0].Server().SetFaultInjector(inj)
	if err := sdk.RefreshMap(); err != nil {
		t.Fatalf("RefreshMap over transient disconnects: %v", err)
	}
	st := sdk.Stats()
	if st.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", st.Retries)
	}
	if st.RetriesExhausted != 0 {
		t.Errorf("RetriesExhausted = %d, want 0", st.RetriesExhausted)
	}
	if inj.Fired(0) != 2 {
		t.Errorf("injector fired %d times, want 2", inj.Fired(0))
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	cl, err := server.StartCluster(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	sdk, err := client.Dial(client.Config{
		Addrs:        cl.Addrs,
		RetryBudget:  2,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdk.Close() })

	cl.Services[0].Server().SetFaultInjector(rpc.DownInjector())
	err = sdk.RefreshMap()
	if err == nil {
		t.Fatal("RefreshMap against a down MDS succeeded")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("error %q does not report exhaustion", err)
	}
	if got := sdk.Stats().RetriesExhausted; got != 1 {
		t.Errorf("RetriesExhausted = %d, want 1", got)
	}

	// Clearing the injector "restarts" the MDS: the same client recovers.
	cl.Services[0].Server().SetFaultInjector(nil)
	if err := sdk.RefreshMap(); err != nil {
		t.Fatalf("RefreshMap after recovery: %v", err)
	}
}

// TestRenameRulesMatchTree runs each rename case against the sequential
// spec (namespace.Tree) and a live 1-MDS cluster, and requires the same
// verdict and the same resulting namespace from both.
func TestRenameRulesMatchTree(t *testing.T) {
	_, sdk := startOne(t, 1, "off")
	tree := namespace.NewTree()
	layout := []struct {
		path string
		typ  namespace.FileType
	}{
		{"/a", namespace.TypeDir}, {"/a/b", namespace.TypeDir},
		{"/f", namespace.TypeFile}, {"/g", namespace.TypeFile},
		{"/e", namespace.TypeDir}, {"/n", namespace.TypeDir}, {"/n/x", namespace.TypeFile},
	}
	probes := []string{"/a", "/a/b", "/a/b/c", "/a/c", "/a/b/e2", "/f", "/g", "/g/x", "/e", "/n", "/n/x", "/z"}
	treeCode := func(err error) string {
		for code, sentinel := range map[string]error{
			mds.CodeInvalid: namespace.ErrInvalid, mds.CodeIsDir: namespace.ErrIsDir,
			mds.CodeNotDir: namespace.ErrNotDir, mds.CodeNotEmpty: namespace.ErrNotEmpty,
			mds.CodeNoEnt: namespace.ErrNotFound,
		} {
			if errors.Is(err, sentinel) {
				return code
			}
		}
		if err != nil {
			return err.Error()
		}
		return ""
	}
	treeRename := func(src, dst string) error {
		sdir, sname := namespace.ParentPath(src)
		ddir, dname := namespace.ParentPath(dst)
		sc, err := tree.ResolvePath(sdir)
		if err != nil {
			return err
		}
		dc, err := tree.ResolvePath(ddir)
		if err != nil {
			return err
		}
		return tree.Rename(sc[len(sc)-1].Ino, sname, dc[len(dc)-1].Ino, dname, 0)
	}
	for i, tc := range []struct {
		name, src, dst, want string
	}{
		{"dir into its own subtree", "/a", "/a/b/c", mds.CodeInvalid},
		{"dir into itself", "/a", "/a/c", mds.CodeInvalid},
		{"file over dir", "/f", "/e", mds.CodeIsDir},
		{"dir over file", "/e", "/f", mds.CodeNotDir},
		{"onto itself", "/f", "/f", ""},
		{"file over file", "/f", "/g", ""},
		{"dir deeper", "/e", "/a/b/e2", ""},
		{"dir over empty dir", "/a/b", "/e", ""},
		{"dir over non-empty dir", "/e", "/n", mds.CodeNotEmpty},
		{"into a file", "/f", "/g/x", mds.CodeNotDir},
		{"missing source", "/missing", "/z", mds.CodeNoEnt},
	} {
		// Each case gets a fresh copy of the layout under its own root.
		root := fmt.Sprintf("/case%d", i)
		if _, err := sdk.Mkdir(root); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.Create(namespace.RootIno, root[1:], namespace.TypeDir, 0); err != nil {
			t.Fatal(err)
		}
		for _, l := range layout {
			var err error
			if l.typ == namespace.TypeDir {
				_, err = sdk.Mkdir(root + l.path)
			} else {
				_, err = sdk.Create(root + l.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			dir, name := namespace.ParentPath(root + l.path)
			chain, err := tree.ResolvePath(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tree.Create(chain[len(chain)-1].Ino, name, l.typ, 0); err != nil {
				t.Fatal(err)
			}
		}
		if got := treeCode(treeRename(root+tc.src, root+tc.dst)); got != tc.want {
			t.Fatalf("%s: tree says %q, test wants %q", tc.name, got, tc.want)
		}
		if got := mds.ErrCode(sdk.Rename(root+tc.src, root+tc.dst)); got != tc.want {
			t.Errorf("%s: cluster says %q, tree says %q", tc.name, got, tc.want)
		}
		for _, p := range probes {
			_, terr := tree.ResolvePath(root + p)
			_, cerr := sdk.Stat(root + p)
			if (terr == nil) != (cerr == nil) {
				t.Errorf("%s: after the rename %s exists in tree=%v, cluster=%v", tc.name, p, terr == nil, cerr == nil)
			}
		}
	}
}
