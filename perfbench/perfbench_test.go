package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
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

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and requires every output check to pass, no failed tick, and exactly
// the metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload for a few seconds")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.5, trace: trace, setups: 2,
				spansDir: filepath.Join(t.TempDir(), "spans.jsonl")}
			out, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, c := range out.checks {
				if !c.ok {
					t.Errorf("%s trace=%v: check %s failed: %s", name, trace, c.name, c.info)
				}
			}
			if out.res.Attempted < 1 || out.res.Failed != 0 {
				t.Errorf("%s trace=%v: failed %d of %d", name, trace, out.res.Failed, out.res.Attempted)
			}
			want := units[trace]
			var missing, extra []string
			for n, u := range want {
				got, ok := out.res.Metrics[n]
				if !ok {
					missing = append(missing, n)
				} else if got.Unit != u {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", name, trace, n, got.Unit, u)
				}
			}
			for n := range out.res.Metrics {
				if _, ok := want[n]; !ok {
					extra = append(extra, n)
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			if len(missing) > 0 || len(extra) > 0 {
				t.Errorf("%s trace=%v: metrics missing %v, undeclared %v", name, trace, missing, extra)
			}
			if trace {
				if _, err := os.Stat(o.spansDir); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", name, err)
				}
			}
		}
	}
}

// TestInputsSeeded checks the benchmark's input contract: the same seed
// gives the same inputs, another seed other inputs.
func TestInputsSeeded(t *testing.T) {
	for _, name := range []string{"paper-rig", "ingest-heavy"} {
		w := agentWorkloads[name]
		a, err := w.inputs(w, 1, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.inputs(w, 1, 50)
		c, _ := w.inputs(w, 2, 50)
		if !reflect.DeepEqual(a.pis, b.pis) {
			t.Errorf("%s: seed 1 gave two different input streams", name)
		}
		if reflect.DeepEqual(a.pis, c.pis) {
			t.Errorf("%s: seeds 1 and 2 gave the same input stream", name)
		}
	}
	a, b, c := newClusterInputs(1), newClusterInputs(1), newClusterInputs(2)
	if !reflect.DeepEqual(a.frame(9), b.frame(9)) || reflect.DeepEqual(a.frame(9), c.frame(9)) {
		t.Error("cluster-train inputs do not follow the seed")
	}
}

// TestHostRefScale checks how a run's reference chunk times become its
// scale: the mean of the fastest fifth, against the reference time,
// square-rooted.
func TestHostRefScale(t *testing.T) {
	h := newHostRef(1)
	h.times = []float64{4000, 1000, 3000, 2000, 5000, 1000, 9000, 3000, 2000, 4000}
	if got := h.chunkUs(); got != 1000 {
		t.Errorf("chunkUs = %g, want the fastest fifth's mean 1000", got)
	}
	if got, want := h.scale(), math.Sqrt(1000/refChunkUs[1]); got != want {
		t.Errorf("scale = %g, want %g", got, want)
	}
	h.times = []float64{4 * refChunkUs[1]}
	if got := h.scale(); got != 2 {
		t.Errorf("scale = %g for a host 4x slower than reference, want 2", got)
	}
}
