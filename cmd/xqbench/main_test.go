package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sjos/internal/experiments"
)

func TestPrintCensus(t *testing.T) {
	rows, out, err := census(config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rows.([]censusRow)); n != len(experiments.Queries()) {
		t.Errorf("%d census rows for %d queries", n, len(experiments.Queries()))
	}
	for _, q := range experiments.Queries() {
		if !strings.Contains(out, q.ID) {
			t.Errorf("census missing %s:\n%s", q.ID, out)
		}
	}
	if !strings.Contains(out, "deadends") {
		t.Errorf("census header missing:\n%s", out)
	}
}

// xqbench runs the command in-process and returns its exit code and output.
func xqbench(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// TestDispatch: no lane, an unknown lane, an unknown flag, a stray argument
// and the retired spellings all print the usage — which names every lane —
// and exit 2 without running anything.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{
		nil, {"nope"}, {"table2", "-bogus"}, {"table2", "3"},
		{"-loadbench"}, {"-table", "3"}, {"-cachebench"},
	} {
		code, stdout, stderr := xqbench(args...)
		if code != 2 || stdout != "" {
			t.Errorf("xqbench %v: exit %d, stdout %q; want 2 and nothing run", args, code, stdout)
		}
		for _, l := range lanes() {
			if !strings.Contains(stderr, "\n  "+l.name+" ") {
				t.Errorf("xqbench %v: usage does not name lane %s:\n%s", args, l.name, stderr)
			}
		}
	}
}

func TestCensusAndPlannerQuickRun(t *testing.T) {
	if code, stdout, stderr := xqbench("census"); code != 0 || !strings.Contains(stdout, experiments.PersQuery3) {
		t.Fatalf("census: exit %d\n%s%s", code, stdout, stderr)
	}
	if code, stdout, stderr := xqbench("planner", "-quick"); code != 0 || !strings.Contains(stdout, "headline: max regret DP ") {
		t.Fatalf("planner -quick: exit %d\n%s%s", code, stdout, stderr)
	}
}

// TestLoadWritesOnlyWhereTold: a quick load run leaves its working directory
// empty unless -out names a file, and then writes that one file, in the
// envelope.
func TestLoadWritesOnlyWhereTold(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	files := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	if code, stdout, stderr := xqbench("load", "-quick"); code != 0 {
		t.Fatalf("load -quick: exit %d\n%s%s", code, stdout, stderr)
	}
	if got := files(); len(got) != 0 {
		t.Fatalf("load -quick without -out left %v behind", got)
	}
	if code, stdout, stderr := xqbench("load", "-quick", "-out", "result.json"); code != 0 {
		t.Fatalf("load -quick -out: exit %d\n%s%s", code, stdout, stderr)
	}
	if got := files(); len(got) != 1 || got[0] != "result.json" {
		t.Fatalf("load -quick -out result.json left %v", got)
	}
	env, result := readEnvelope(t, "result.json")
	if env.Lane != "load" || !env.Quick || env.Env.Go == "" || env.Env.CPUs == 0 || env.Env.Revision == "" {
		t.Fatalf("envelope not filled: %+v", env)
	}
	var res experiments.LoadResult
	if err := json.Unmarshal(result, &res); err != nil || len(res.Arms) != 2 {
		t.Fatalf("result does not decode into the lane's struct (%v): %s", err, result)
	}
}

// TestTrackedResultsShareTheEnvelope: the committed result files are full
// runs of their lanes, in the same envelope -out writes.
func TestTrackedResultsShareTheEnvelope(t *testing.T) {
	tracked, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(tracked) != 2 {
		t.Fatalf("tracked result files: %v (%v), want BENCH_load.json and BENCH_planner.json", tracked, err)
	}
	for _, path := range tracked {
		env, result := readEnvelope(t, path)
		if want := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json"); env.Lane != want {
			t.Errorf("%s: lane %q", path, env.Lane)
		}
		if env.Quick || env.Env.Go == "" || env.Env.CPUs == 0 || len(result) == 0 {
			t.Errorf("%s: not a full run with its environment: quick=%v env=%+v", path, env.Quick, env.Env)
		}
	}
}

// readEnvelope decodes a result file strictly, leaving the lane's result raw.
func readEnvelope(t *testing.T, path string) (experiments.Envelope, json.RawMessage) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var result json.RawMessage
	env := experiments.Envelope{Result: &result}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return env, result
}
