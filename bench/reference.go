package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/report"
	"sparkgo/internal/service"
)

// referenceJSON holds the expected output of every configuration any
// workload can request, and the paper suite's tables. Regenerate it
// with --update only when the flow's results are meant to change.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// reference is the decoded form of testdata/reference.json.
type reference struct {
	// Points maps "<config> sim=<trials>" to the point the daemon must
	// return. Generator configs use the engine's canonical config
	// string; synth_mix configs use synthConfig.String.
	Points map[string]refPoint `json:"points"`
	// Frontiers maps a sweep (frontierKey) to its Pareto frontier, as
	// canonical config strings in presentation order.
	Frontiers map[string][]string `json:"frontiers"`
	// Tables maps an experiment id to its table: the title, the CSV
	// header, then the CSV rows sorted (E5 emits its rows in map order).
	Tables map[string][]string `json:"tables"`
}

// refPoint is everything a returned point reports.
type refPoint struct {
	Cycles   int     `json:"cycles"`
	Latency  int     `json:"latency"`
	CritPath float64 `json:"crit_path"`
	Area     float64 `json:"area"`
	Muxes    int     `json:"muxes"`
	FUs      int     `json:"fus"`
	Rounds   int     `json:"rounds"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &r, nil
}

func pointKey(config string, sim int) string { return fmt.Sprintf("%s sim=%d", config, sim) }

func frontierKey(sizes []int, sim int) string {
	return fmt.Sprintf("sweep sizes=%s sim=%d", strings.Trim(fmt.Sprint(sizes), "[]"), sim)
}

// checkPoint compares one returned point with its reference.
func (r *reference) checkPoint(key string, pv service.PointView) error {
	if pv.Err != "" {
		return fmt.Errorf("%s: failed: %s", key, pv.Err)
	}
	want, ok := r.Points[key]
	if !ok {
		return fmt.Errorf("%s: no reference output", key)
	}
	got := refPoint{Cycles: pv.Cycles, Latency: pv.Latency, CritPath: pv.CritPath, Area: pv.Area,
		Muxes: pv.Muxes, FUs: pv.FUs, Rounds: pv.Rounds}
	if got != want {
		return fmt.Errorf("%s: got %+v, reference %+v", key, got, want)
	}
	return nil
}

// fullCoordination reports whether c is the paper's design (every
// coordinated transformation, chaining, no unroll bound), which must
// synthesize to one cycle at every n.
func fullCoordination(c explore.Config) bool {
	return c.String() == explore.Config{N: c.N, Preset: core.MicroprocessorBlock}.String()
}

// checkSweep checks a sweep job: every configuration of the grid
// present once and equal to its reference, the paper's single-cycle
// invariant, and the frontier.
func (r *reference) checkSweep(v service.JobView, sizes []int, sim int) error {
	grid := sweepGrid(sizes)
	byName := make(map[string]explore.Config, len(grid))
	for _, c := range grid {
		byName[c.String()] = c
	}
	if len(v.Result.Points) != len(grid) {
		return fmt.Errorf("sweep: %d points, want %d", len(v.Result.Points), len(grid))
	}
	for _, pv := range v.Result.Points {
		c, ok := byName[pv.Config]
		if !ok {
			return fmt.Errorf("sweep: unexpected or repeated config %q", pv.Config)
		}
		delete(byName, pv.Config)
		if err := r.checkPoint(pointKey(pv.Config, sim), pv); err != nil {
			return err
		}
		if fullCoordination(c) && (pv.Cycles != 1 || pv.Latency != 1) {
			return fmt.Errorf("%s: %d cycles, latency %d; the coordinated design must be single-cycle",
				pv.Config, pv.Cycles, pv.Latency)
		}
	}
	front := make([]string, len(v.Result.Frontier))
	for i, pv := range v.Result.Frontier {
		front[i] = pv.Config
	}
	if want := r.Frontiers[frontierKey(sizes, sim)]; !slices.Equal(front, want) {
		return fmt.Errorf("sweep frontier %v, reference %v", front, want)
	}
	return nil
}

// checkSynth checks a synth job's single point: the configuration the
// daemon synthesized, its reference, and the single-cycle invariant.
func (r *reference) checkSynth(v service.JobView, c synthConfig) error {
	if len(v.Result.Points) != 1 {
		return fmt.Errorf("%s: %d points, want 1", c, len(v.Result.Points))
	}
	pv := v.Result.Points[0]
	if want := c.engineConfig(v.Result.SourceFingerprint).String(); pv.Config != want {
		return fmt.Errorf("%s: daemon synthesized %q, want %q", c, pv.Config, want)
	}
	if err := r.checkPoint(pointKey(c.String(), 1), pv); err != nil {
		return err
	}
	if c.fullCoordination() && pv.Cycles != 1 {
		return fmt.Errorf("%s: %d cycles; the coordinated design must be single-cycle", c, pv.Cycles)
	}
	return nil
}

// checkLayers compares what the traced replay computed layer by layer
// with the reference point of the same configuration. Latency is left
// out: the replay draws its own stimulus.
func (r *reference) checkLayers(key string, sim int, got refPoint) error {
	want, ok := r.Points[pointKey(key, sim)]
	if !ok {
		return fmt.Errorf("replay %s: no reference output", key)
	}
	got.Latency = want.Latency
	if got != want {
		return fmt.Errorf("replay %s: got %+v, reference %+v", key, got, want)
	}
	return nil
}

// checkTable compares an experiment's table with its reference.
func (r *reference) checkTable(id string, t *report.Table) error {
	if got, want := tableLines(t), r.Tables[id]; !slices.Equal(got, want) {
		return fmt.Errorf("table differs from reference:\n got %q\nwant %q", got, want)
	}
	return nil
}

func tableLines(t *report.Table) []string {
	lines := strings.Split(strings.TrimSuffix(t.CSV(), "\n"), "\n")
	slices.Sort(lines[1:])
	return append([]string{t.Title}, lines...)
}

func refOf(p explore.Point) refPoint {
	return refPoint{Cycles: p.Cycles, Latency: p.Latency, CritPath: p.CritPath, Area: p.Area,
		Muxes: p.Muxes, FUs: p.FUs, Rounds: p.Rounds}
}

// writeReference recomputes every reference output on in-process
// engines (no daemon) and writes the file.
func writeReference(path string) error {
	r := &reference{Points: map[string]refPoint{}, Frontiers: map[string][]string{}, Tables: map[string][]string{}}
	add := func(eng *explore.Engine, space []explore.Config, name func(int) string, sim int) ([]explore.Point, error) {
		pts := eng.Sweep(space)
		var failed []string
		for i, p := range pts {
			if p.Err != "" {
				failed = append(failed, fmt.Sprintf("%q: %s", name(i), p.Err))
			}
			r.Points[pointKey(name(i), sim)] = refOf(p)
		}
		if len(failed) > 0 {
			return nil, fmt.Errorf("%d configurations failed:\n%s", len(failed), strings.Join(failed, "\n"))
		}
		return pts, nil
	}
	for _, sw := range []struct {
		sizes []int
		sim   int
	}{{sweepReq.Sizes, 1}, {sweepReq.Sizes, 64}, {e15Req.Sizes, 1}} {
		grid := sweepGrid(sw.sizes)
		pts, err := add(&explore.Engine{SimTrials: sw.sim}, grid, func(i int) string { return grid[i].String() }, sw.sim)
		if err != nil {
			return err
		}
		var front []string
		for _, p := range explore.Frontier(pts) {
			front = append(front, p.Config.String())
		}
		r.Frontiers[frontierKey(sw.sizes, sw.sim)] = front
	}

	synth := slices.Concat(synthSpace())
	eng := &explore.Engine{SimTrials: 1}
	space := make([]explore.Config, len(synth))
	for i, c := range synth {
		prog, err := parser.Parse("inline", c.src)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		fp := ir.Fingerprint(prog)
		eng.AddSource(fp, prog)
		space[i] = c.engineConfig(fp)
	}
	if _, err := add(eng, space, func(i int) string { return synth[i].String() }, 1); err != nil {
		return err
	}

	for _, e := range suite {
		t, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		r.Tables[e.id] = tableLines(t)
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
