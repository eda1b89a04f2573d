package main

import (
	"fmt"

	"origami/internal/trace"
	"origami/internal/workload"
)

// spec describes one benchmark workload: the one-MDS cluster it runs on
// and the closed-loop clients that drive it.
type spec struct {
	name string
	// tenants is the number of independent traces, each replayed under
	// its own root /tNN by one closed-loop worker. A shared-trace
	// workload has one tenant replayed by several workers.
	tenants int
	// workers is the number of closed-loop goroutines (in-flight depth).
	workers int
	// virtual is the number of SDK virtual clients (client.Fork, each
	// with a cold lease cache) the workers rotate through; 0 gives every
	// worker one fork of its own.
	virtual int
	// batch is the SDK BatchWindow (0 = one frame per op).
	batch int
	// syncWAL turns on the store's SyncWAL: every acknowledged write
	// waits for the WAL group-commit fsync covering it.
	syncWAL bool
	// gen builds tenant t's trace of numOps access ops; small shrinks
	// the namespace for the smoke test.
	gen func(seed int64, t, numOps int, small bool) *trace.Trace
	// warmOps and measureOps fix the measured op range: completions
	// numbered (warmOps, warmOps+measureOps] (see passResult.measure).
	// Sized to most of what a 10 s window completes on a 2-vCPU host,
	// so a run measures as much of its window as it can; a slower run
	// stretches its window to finish the range (see runPass).
	warmOps, measureOps int
	// traceEvery samples one op in traceEvery for span assembly in the
	// traced pass; each sample costs a trace pull from every MDS, so
	// cheap-op workloads sample less often.
	traceEvery int
	// setupReps is how many times a run sets up (setup_s is the
	// median); cheap set-ups repeat more to steady the median.
	setupReps int
	// opsPerSecond sizes each tenant's trace: seconds*opsPerSecond ops,
	// several times what one tenant completes on a 2-vCPU host.
	opsPerSecond int
}

func specs() []spec {
	return []spec{
		{
			// The write path: batcher, MethodBatch apply, commit
			// pipeline, WAL group-commit fsync, flush.
			name:    "write-wi",
			tenants: 32, workers: 32, batch: 64, syncWAL: true,
			gen: func(seed int64, t, n int, small bool) *trace.Trace {
				return workload.TraceWI(workload.WIConfig{
					Seed: tenantSeed(seed, t), NumOps: n, Users: pick(small, 4, 12), DirsPer: 4,
					Nested: 2, HotUsers: 3, Phases: 2, WriteRatio: 0.8,
				})
			},
			warmOps: 5000, measureOps: 80000,
			traceEvery: 32, setupReps: 15, opsPerSecond: 800,
		},
		{
			// Deep reads of a 100k-file namespace by cold-cache
			// clients: path resolution and SSTable reads.
			name:    "read-ro",
			tenants: 1, workers: 8, virtual: 1024,
			gen: func(seed int64, t, n int, small bool) *trace.Trace {
				return workload.TraceRO(workload.ROConfig{
					Seed: tenantSeed(seed, t), NumOps: n, Sites: pick(small, 10, 200), Depth: 10,
					PerDir: pick(small, 5, 50), Skew: 1.4, DeepSkew: 1.15,
				})
			},
			warmOps: 3000, measureOps: 40000,
			traceEvery: 16, setupReps: 5, opsPerSecond: 15000,
		},
		{
			// Compile jobs on one MDS: the lease cache at a high hit
			// ratio, cheap cached reads between create, setattr and
			// rename invalidations.
			name:    "rw-compile",
			tenants: 8, workers: 8,
			gen: func(seed int64, t, n int, small bool) *trace.Trace {
				return workload.TraceRW(workload.RWConfig{
					Seed: tenantSeed(seed, t), NumOps: n, Modules: pick(small, 4, 24), Files: 30,
					Headers: pick(small, 12, 60), SubDepth: 5,
				})
			},
			warmOps: 5000, measureOps: 400000,
			traceEvery: 256, setupReps: 15, opsPerSecond: 13000,
		},
	}
}

func pick(small bool, smallV, fullV int) int {
	if small {
		return smallV
	}
	return fullV
}

func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// tenantSeed derives tenant t's trace seed from the benchmark seed.
func tenantSeed(seed int64, t int) int64 { return seed*1000003 + int64(t)*7919 + 1 }

// tenantRoot is the directory tenant t's trace lives under.
func tenantRoot(t int) string { return fmt.Sprintf("/t%02d", t) }
