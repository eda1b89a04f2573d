package scenario

import (
	"path/filepath"
	"testing"
)

// TestChaosAsyncCommitKill runs the async-commit-kill scenario: a
// batching client storms a fleet running the async commit policy, the
// pinned primary is killed mid-storm, and the loss-window assertion
// checks the acked-but-lost tail against the budget the fleet's own
// config promises (commit window + the shipper's unshipped tail). The
// workload's batched frames mean the kill lands on multi-op frames in
// flight; the SDK's retry loop re-sends each op on its own under its
// original (clientID, opID), so the replay table answers an op that
// had applied instead of applying it twice.
func TestChaosAsyncCommitKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a real cluster")
	}
	res, err := RunFile(filepath.Join("..", "..", "scenarios", "async-commit-kill.yaml"), Options{BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assertions {
		if !a.Passed {
			t.Errorf("assert FAIL %-14s %s", a.Kind, a.Detail)
		}
	}
	if res.ClientMetrics == nil {
		t.Fatal("no client metrics in result")
	}
	if res.ClientMetrics.Counters["client.batch.frames"] == 0 {
		t.Error("workload batch: 16 produced no batched frames — the kill never exercised multi-op replay")
	}
	t.Logf("batch frames=%d replays=%d; acked=%d lost=%d",
		res.ClientMetrics.Counters["client.batch.frames"],
		res.ClientMetrics.Counters["client.batch.replays"],
		res.Workload.Acked, res.Workload.Lost)
}

// TestChaosSyncCommitLossWindow pins the other side of the per-mode
// claim: the same kill under the sync policies must lose nothing acked.
// kill-primary-sync already asserts no-acked-loss; this checks that the
// computed loss-window budget agrees (it must be exactly zero for a
// sync-replication fleet, so the assertion kinds cannot drift apart).
func TestChaosSyncCommitLossWindow(t *testing.T) {
	sc, err := ParseFile(filepath.Join("..", "..", "scenarios", "kill-primary-sync.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if got := lossWindowBound(sc); got != 0 {
		t.Errorf("sync-replication fleet computed loss budget %d, want 0", got)
	}
	if got := commitModeName(sc); got != "sync-repl" {
		t.Errorf("effective commit mode %q, want sync-repl", got)
	}
}
