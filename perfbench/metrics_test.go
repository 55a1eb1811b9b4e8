package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric lists the program prints must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if got, ok := units[m.Name]; !ok || got != m.Unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json, %q (present %v) in the program", kind, m.Name, m.Unit, got, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
}
