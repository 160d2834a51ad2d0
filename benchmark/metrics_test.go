package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	return bf
}

// What the program measures and what BENCHMARK.json declares are one list.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	compare := func(kind string, have []metricDef, want []declared, bounded bool) {
		if len(have) != len(want) {
			t.Errorf("%s: the program has %d metrics, BENCHMARK.json %d", kind, len(have), len(want))
			return
		}
		for i, m := range have {
			d := want[i]
			if m.name != d.Name || m.unit != d.Unit || m.better != d.Better {
				t.Errorf("%s %d: program %s/%s/%s, BENCHMARK.json %s/%s/%s", kind, i, m.name, m.unit, m.better, d.Name, d.Unit, d.Better)
			}
			if bounded != (d.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, d.Name, d.Bound != nil)
			} else if bounded && *d.Bound != m.bound {
				t.Errorf("%s %s: bound %v in the program, %v in BENCHMARK.json", kind, d.Name, m.bound, *d.Bound)
			}
		}
	}
	compare("end_to_end", endToEnd, bf.EndToEnd, true)
	compare("per_layer", perLayer, bf.PerLayer, false)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(workloads), len(bf.Workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in the program, %s in BENCHMARK.json", i, w.name, bf.Workloads[i].Name)
		}
		if n := len(bf.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, n)
		}
	}
}

func TestNamesUnitsAndLimits(t *testing.T) {
	bf := readBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q does not match %v", m.name, m.unit, unitRE)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
		if m.bound < 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bf.Paths)
	}
}
