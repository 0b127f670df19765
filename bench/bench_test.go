package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the code must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smokeOptions runs one job per timed half (synth_mix: half a second
// per half) with no warm-up and one build of the starting state.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 1, seconds: time.Second, trace: trace, primes: 1, maxJobs: 1,
		work: t.TempDir(), ref: ref, started: time.Now()}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload traced, at one
// job per half and in parallel, and checks that the run is correct and
// that both metric sets it can print match BENCHMARK.json name for name
// and unit for unit, so the code and the file cannot drift.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			s, err := execute(smokeOptions(t, w, true))
			if err != nil {
				t.Fatal(err)
			}
			if !s.correct() {
				t.Fatalf("%d of %d failed: %v", s.failed, s.attempted, s.errs)
			}
			checkNames(t, "end_to_end", d.EndToEnd, s.endToEnd())
			checkNames(t, "per_layer", d.PerLayer, s.perLayer())
		})
	}
}

func checkNames(t *testing.T, list string, want []declaredMetric, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", list, len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s: %s emitted as %+v (present %t), declared unit %q", list, m.Name, g, ok, m.Unit)
		}
	}
}

// TestCorruptReferenceFails checks that the correctness gate bites: one
// wrong reference entry fails the job that returns that configuration.
func TestCorruptReferenceFails(t *testing.T) {
	t.Parallel()
	opt := smokeOptions(t, "sweep_resim", false)
	key := pointKey("n=4 preset=microprocessor-block", 64)
	p, ok := opt.ref.Points[key]
	if !ok {
		t.Fatalf("no reference for %s", key)
	}
	p.Area++
	opt.ref.Points[key] = p
	s, err := execute(opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.correct() || s.failed == 0 {
		t.Fatalf("run with a corrupted reference passed: %d of %d failed", s.failed, s.attempted)
	}
}
