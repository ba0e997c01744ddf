package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/pc"
	"mpclogic/internal/rel"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
		{0, 0, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "mpc.round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "mpc.route", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "mpc.route", Start: 30, End: 60},    // overlaps its sibling
		{ID: 3, Parent: 0, Name: "mpc.compute", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "rel.union", Start: 15, End: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	layers := layerSelf(spans)
	if layers["mpc"] != 40+25+30+30 || layers["rel"] != 5 {
		t.Errorf("layerSelf = %v", layers)
	}
}

func TestScriptsAreAFunctionOfTheSeed(t *testing.T) {
	wc := warmConfig{sessions: 2, tuples: 50, queries: 30, heavyFrac: 0.1, poolSize: 4}
	cc := churnConfig{sessions: 3, vertices: 40, edges: 40, queries: 20, skew: 0.1}
	bc := batchConfig{cycles: 2, tcM: 20, gymM: 100, cubeM: 100}
	if !reflect.DeepEqual(genWarm(1, wc), genWarm(1, wc)) ||
		!reflect.DeepEqual(genChurn(1, cc), genChurn(1, cc)) ||
		!reflect.DeepEqual(genJobs(1, bc), genJobs(1, bc)) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(genWarm(1, wc), genWarm(2, wc)) ||
		reflect.DeepEqual(genChurn(1, cc), genChurn(2, cc)) ||
		reflect.DeepEqual(genJobs(1, bc), genJobs(2, bc)) {
		t.Fatal("different seeds gave identical inputs")
	}
}

// Every query drawn for serve-warm must be covered by its session's
// anchor, or it would repartition and the workload would not measure
// the reuse path.
func TestWarmDrawsAreCovered(t *testing.T) {
	checked := map[string]bool{}
	for _, spec := range genWarm(5, warmConfig{sessions: 2, tuples: 50, queries: 200, heavyFrac: 0.1, poolSize: 4}) {
		d := rel.NewDict()
		anchor := cq.MustParse(d, spec.Anchor)
		for _, op := range spec.Script {
			if checked[op.Query] {
				continue
			}
			checked[op.Query] = true
			ok, w, err := pc.Covers(anchor, cq.MustParse(d, op.Query))
			if err != nil || !ok {
				t.Errorf("%q is not covered by %q: %v %v", op.Query, spec.Anchor, w, err)
			}
		}
	}
	if len(checked) < 10 {
		t.Fatalf("only %d distinct queries drawn", len(checked))
	}
}

// serve-churn alternates anchors none of which covers the next, so
// every CQ repartitions.
func TestChurnCyclesNeverCoverTheNext(t *testing.T) {
	for kind, cycle := range churnCycles {
		d := rel.NewDict()
		for i := range cycle {
			prev, next := cycle[i], cycle[(i+1)%len(cycle)]
			ok, _, err := pc.Covers(cq.MustParse(d, prev), cq.MustParse(d, next))
			if err != nil || ok {
				t.Errorf("%s: %q covers %q (err %v)", kind, prev, next, err)
			}
		}
	}
}

// buildBinaries compiles the daemon and the job runner the smoke runs
// drive.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+"/", "mpclogic/cmd/mpcd", "mpclogic/cmd/mpcrun")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building binaries: %v\n%s", err, out)
	}
	return dir
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEachWorkload runs every workload at a tiny size with tracing
// on: no op may fail, every gate must pass, and the metrics reported
// must be exactly the ones BENCHMARK.json declares.
func TestSmokeEachWorkload(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	bin := buildBinaries(t)
	runs := map[string]func(e env, r *report){
		"serve-warm": func(e env, r *report) {
			runWarm(e, warmConfig{sessions: 2, tuples: 200, queries: 25, heavyFrac: 0.1, poolSize: 4}, r)
		},
		"serve-churn": func(e env, r *report) {
			runChurn(e, churnConfig{sessions: 3, vertices: 60, edges: 60, queries: 12, skew: 0.1}, 2, r)
		},
		"batch-net": func(e env, r *report) {
			runBatch(e, batchConfig{cycles: 1, tcM: 20, gymM: 200, cubeM: 300}, r)
		},
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var r report
			runs[w](env{bin: bin, work: t.TempDir(), seed: 3, trace: true}, &r)
			if r.failed > 0 || r.attempted == 0 {
				t.Fatalf("%d of %d ops failed:\n%s", r.failed, r.attempted, r.problemsText())
			}
			if len(r.e2e) != len(bf.EndToEnd) {
				t.Fatalf("%d end-to-end metrics, BENCHMARK.json declares %d", len(r.e2e), len(bf.EndToEnd))
			}
			for i, m := range r.e2e {
				if m.Name != bf.EndToEnd[i].Name || m.Unit != bf.EndToEnd[i].Unit {
					t.Errorf("end-to-end metric %d is %s (%s), BENCHMARK.json says %s (%s)", i, m.Name, m.Unit, bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit)
				}
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, m.Value)
				}
			}
			if len(r.layer) != len(bf.PerLayer) {
				t.Fatalf("%d per-layer metrics, BENCHMARK.json declares %d", len(r.layer), len(bf.PerLayer))
			}
			for i, m := range r.layer {
				if m.Name != bf.PerLayer[i].Name || m.Unit != bf.PerLayer[i].Unit {
					t.Errorf("per-layer metric %d is %s (%s), BENCHMARK.json says %s (%s)", i, m.Name, m.Unit, bf.PerLayer[i].Name, bf.PerLayer[i].Unit)
				}
			}
			if len(r.spans) == 0 {
				t.Error("the traced replay recorded no spans")
			}
		})
	}
}
