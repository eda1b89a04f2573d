package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared reads the workload names and the metric names and units
// BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, endToEnd, perLayer
}

// TestSmoke runs every workload BENCHMARK.json names at tiny size for one second and
// checks that it completes cleanly, passes its correctness checks and
// reports every end-to-end metric; write-wi also runs the traced ledger.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real clusters")
	}
	gated, declE2E, declLayer := declared(t)
	if len(gated) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, name := range gated {
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			if traced && sp.name != "write-wi" {
				continue
			}
			o := options{workload: sp.name, seed: 3, seconds: 1, trace: traced, dataDir: t.TempDir(), smoke: true}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%v: model mismatches %v", sp.name, traced, rep.mismatches)
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d %v", sp.name, traced, rep.Attempted, rep.Failed, rep.errSample)
			}
			want, decl := endToEnd, declE2E
			if traced {
				want, decl = perLayer, declLayer
			}
			if len(rep.Metrics) != len(decl) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", sp.name, traced, len(rep.Metrics), len(decl))
			}
			for name, m := range rep.Metrics {
				if unit, ok := decl[name]; !ok || unit != m.Unit {
					t.Errorf("%s: metric %s in %s, BENCHMARK.json has %q (declared %v)", sp.name, name, m.Unit, unit, ok)
				}
			}
			for _, n := range want {
				if _, ok := rep.all[n]; !ok && !traced {
					t.Errorf("%s: end-to-end metric %s not measured", sp.name, n)
				}
			}
			if traced && rep.all["trace.sampled_ops"].Value == 0 {
				t.Errorf("%s: traced run assembled no op traces", sp.name)
			}
		}
	}
}
