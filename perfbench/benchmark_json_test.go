package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesReportedMetrics keeps BENCHMARK.json and the
// metrics the program prints in step: same names, same units, same order.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, the program's %v", names, workloads)
	}
	compare := func(kind string, want []entry, got []metric) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].Name || want[i].Unit != got[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], program %s [%s]", kind, i, want[i].Name, want[i].Unit, got[i].Name, got[i].Unit)
			}
		}
	}
	ph := &phase{ops: 1}
	compare("end_to_end", spec.EndToEnd, endToEnd(ph, []float64{1}))
	compare("per_layer", spec.PerLayer, perLayer(ph, ph, nil, nil))
}
