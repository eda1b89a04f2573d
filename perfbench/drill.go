package main

import (
	"math/rand"
	"path"
	"sort"
	"time"

	"origami/internal/client"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/server"
	"origami/internal/telemetry"
)

// drillSample caps how many keys of each era the store drill times.
const drillSample = 2000

// drillKey is one sampled entry and the shard store that owns it.
type drillKey struct {
	in    *namespace.Inode
	store *mds.Store
}

// drill times direct calls into the shard stores (mds.Store.Lookup,
// Getattr, ReadDir) on a seeded sample of keys, split into set-up-era
// keys (long flushed to SSTables) and keys created in the window, and
// charges each call its kvstore Gets and read syscalls. The cluster must
// be quiescent: syscr counts every read the process makes. It returns
// how many sampled keys could not be found or read.
func drill(cl *server.Cluster, models []*model, seed int64, bt *telemetry.Tracer, out map[string]metric) (int, error) {
	var old, recent []string
	for _, m := range models {
		for p, e := range m.entries {
			if e.dir || m.ambiguous[p] {
				continue
			}
			if e.setup {
				old = append(old, p)
			} else {
				recent = append(recent, p)
			}
		}
	}
	rnd := rand.New(rand.NewSource(seed))
	pick := func(ps []string) []string {
		sort.Strings(ps)
		rnd.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		if len(ps) > drillSample {
			ps = ps[:drillSample]
		}
		return ps
	}
	c, err := client.Dial(client.Config{Addrs: cl.Addrs, Cache: "off", TraceSampleRate: -1, CallTimeout: 10 * time.Second})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	failures := 0
	locate := func(ps []string) []drillKey {
		var keys []drillKey
		for _, p := range ps {
			in, err := c.Stat(p)
			if err != nil {
				failures++
				continue
			}
			found := false
			for _, svc := range cl.Services {
				if _, ok, err := svc.Store().Lookup(in.Parent, path.Base(p)); ok && err == nil {
					keys = append(keys, drillKey{in: in, store: svc.Store()})
					found = true
					break
				}
			}
			if !found {
				failures++
			}
		}
		return keys
	}
	gets := func() int64 {
		var n int64
		for _, svc := range cl.Services {
			n += svc.StoreStats().Gets
		}
		return n
	}
	// timeCalls runs fn on every key and reports mean µs, Gets and read
	// syscalls per call; a call that errs or finds nothing is a failure.
	timeCalls := func(name string, keys []drillKey, fn func(k drillKey) (bool, error)) (meanUS, getsPer, preadsPer float64) {
		if len(keys) == 0 {
			return 0, 0, 0
		}
		g0, r0 := gets(), procSyscr()
		start := time.Now()
		for _, k := range keys {
			if ok, err := fn(k); !ok || err != nil {
				failures++
			}
		}
		end := time.Now()
		g1, r1 := gets(), procSyscr()
		benchSpan(bt, "bench.drill."+name, start, end)
		n := float64(len(keys))
		return float64(end.Sub(start).Nanoseconds()) / n / 1000, float64(g1-g0) / n, float64(r1-r0) / n
	}
	lookup := func(k drillKey) (bool, error) {
		_, ok, err := k.store.Lookup(k.in.Parent, k.in.Name)
		return ok, err
	}
	oldKeys, recentKeys := locate(pick(old)), locate(pick(recent))

	lu, gpl, ppl := timeCalls("lookup.setup", oldKeys, lookup)
	out["kvstore.lookup_us"] = metric{lu, "us"}
	out["kvstore.gets_per_lookup"] = metric{gpl, "count"}
	out["kvstore.preads_per_lookup"] = metric{ppl, "count"}
	lu, _, ppl = timeCalls("lookup.recent", recentKeys, lookup)
	out["kvstore.recent_lookup_us"] = metric{lu, "us"}
	out["kvstore.recent_preads_per_lookup"] = metric{ppl, "count"}
	ga, _, _ := timeCalls("getattr", oldKeys, func(k drillKey) (bool, error) {
		_, ok, err := k.store.Getattr(k.in.Ino)
		return ok, err
	})
	out["kvstore.getattr_us"] = metric{ga, "us"}
	rd, _, ppr := timeCalls("readdir", oldKeys, func(k drillKey) (bool, error) {
		kids, err := k.store.ReadDir(k.in.Parent)
		return len(kids) > 0, err
	})
	out["kvstore.readdir_us"] = metric{rd, "us"}
	out["kvstore.preads_per_readdir"] = metric{ppr, "count"}
	return failures, nil
}
