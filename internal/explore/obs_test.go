package explore_test

import (
	"context"
	"reflect"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/obs"
)

// TestSearchObserverCallbacks: an observer attached via context
// receives per-batch evaluation counts, every trajectory improvement
// as it is found, and outer-round boundaries — for every strategy,
// without perturbing the seed-deterministic trajectory.
func TestSearchObserverCallbacks(t *testing.T) {
	sp := explore.Space{
		Base:     explore.Config{N: 2, Preset: core.MicroprocessorBlock},
		Prologue: []string{"inline", "drop-uncalled"},
		Motions:  []string{"constprop", "cse"},
		Epilogue: []string{"dce"},
	}
	budget := explore.Budget{MaxEvaluations: 12}
	for _, st := range append(searchStrategies(), explore.SimulatedAnnealing{}) {
		baseline := st.Search(context.Background(), &explore.Engine{}, sp, explore.LatencyObjective(), budget, 7)

		var batches []int
		var steps []explore.Step
		rounds := 0
		ctx := explore.WithSearchObserver(context.Background(), &explore.SearchObserver{
			OnBatch:       func(evals int) { batches = append(batches, evals) },
			OnImprovement: func(s explore.Step) { steps = append(steps, s) },
			OnRound:       func(int) { rounds++ },
		})
		res := st.Search(ctx, &explore.Engine{}, sp, explore.LatencyObjective(), budget, 7)

		if !reflect.DeepEqual(res.Trajectory, baseline.Trajectory) {
			t.Errorf("%s: observer changed the trajectory", st.Name())
		}
		if len(batches) == 0 {
			t.Fatalf("%s: OnBatch never fired", st.Name())
		}
		for i := 1; i < len(batches); i++ {
			if batches[i] < batches[i-1] {
				t.Errorf("%s: batch evaluations not monotonic: %v", st.Name(), batches)
				break
			}
		}
		if got := batches[len(batches)-1]; got != res.Evaluations {
			t.Errorf("%s: last OnBatch = %d, result evaluations = %d", st.Name(), got, res.Evaluations)
		}
		if !reflect.DeepEqual(steps, res.Trajectory) {
			t.Errorf("%s: OnImprovement steps %v != trajectory %v", st.Name(), steps, res.Trajectory)
		}
		if rounds == 0 {
			t.Errorf("%s: OnRound never fired", st.Name())
		}
	}
}

// TestEngineStageEvents: an engine with a bus attached publishes stage
// spans with the right dispositions (computed on a cold evaluation, a
// memory hit on the repeat), tier traffic, and a simulation event —
// and the folded metrics agree. Every lookup Stats counts publishes
// exactly one stage event, failed computes included, so /v1/stats and
// /metrics give the same answer about a failed job.
func TestEngineStageEvents(t *testing.T) {
	reg := obs.NewRegistry()
	bus := obs.NewBus(obs.NewMetrics(reg))
	eng := &explore.Engine{SimTrials: 4, Obs: bus}
	sub := bus.Subscribe(1024)

	cfg := explore.Config{N: 2, Preset: core.MicroprocessorBlock}
	if pt := eng.Evaluate(context.Background(), cfg); pt.Err != "" {
		t.Fatalf("cold evaluation failed: %s", pt.Err)
	}
	badPass := cfg
	badPass.Passes = []string{"no-such-pass"}
	if pt := eng.Evaluate(context.Background(), badPass); pt.Err == "" {
		t.Fatal("unknown pass evaluated without error")
	}
	badSource := cfg
	badSource.Source = "no-such-source"
	if pt := eng.Evaluate(context.Background(), badSource); pt.Err == "" {
		t.Fatal("unknown source evaluated without error")
	}
	if pt := eng.Evaluate(context.Background(), cfg); pt.Err != "" {
		t.Fatalf("warm evaluation failed: %s", pt.Err)
	}
	bus.Unsubscribe(sub)

	byKey := map[string]int{}
	counted := map[string]int64{}
	for ev := range sub.C {
		switch ev.Type {
		case obs.TypeStage:
			if ev.DurationNs < 0 {
				t.Errorf("negative stage duration: %+v", ev)
			}
			byKey[ev.Type+"/"+ev.Stage+"/"+ev.Disposition]++
			disp := ev.Disposition
			if disp == obs.DispShared {
				disp = obs.DispMem
			}
			counted[ev.Stage+"/"+disp]++
		case obs.TypeSim:
			if ev.Cycles <= 0 {
				t.Errorf("sim event without cycles: %+v", ev)
			}
			byKey["sim"]++
		case obs.TypeTier:
			byKey["tier/"+ev.Tier+"/"+ev.Op]++
		}
	}
	for _, want := range []string{
		"stage/frontend/computed",
		"stage/midend/computed",
		"stage/backend/computed",
		"stage/point/computed",
		"stage/point/mem",
		"sim",
		"tier/mem/miss",
		"tier/mem/hit",
		"tier/mem/put",
	} {
		if byKey[want] == 0 {
			t.Errorf("no %q event; saw %v", want, byKey)
		}
	}

	st := eng.Stats()
	for key, want := range map[string]int64{
		"point/mem": st.PointMemHits, "point/disk": st.PointDiskHits,
		"point/remote": st.PointRemoteHits, "point/computed": st.PointComputed,
		"frontend/mem": st.FrontendMemHits, "frontend/disk": st.FrontendDiskHits,
		"frontend/remote": st.FrontendRemoteHits, "frontend/computed": st.FrontendComputed,
		"midend/mem": st.MidendMemHits, "midend/disk": st.MidendDiskHits,
		"midend/remote": st.MidendRemoteHits, "midend/computed": st.MidendComputed,
		"backend/mem": st.BackendMemHits, "backend/disk": st.BackendDiskHits,
		"backend/remote": st.BackendRemoteHits, "backend/computed": st.BackendComputed,
	} {
		if counted[key] != want {
			t.Errorf("%s: %d stage events, Stats counts %d", key, counted[key], want)
		}
	}
	if st.PointComputed != 3 || st.FrontendComputed != 2 {
		t.Errorf("point/frontend computed = %d/%d, want 3/2: %+v",
			st.PointComputed, st.FrontendComputed, st)
	}

	snap := reg.Snapshot()
	if snap[`sparkgo_stage_latency_seconds_count{disposition="computed",stage="frontend"}`] < 1 {
		t.Error("metrics missing computed frontend stage latency")
	}
	if snap[`sparkgo_stage_latency_seconds_count{disposition="mem",stage="point"}`] < 1 {
		t.Error("metrics missing point memory hit latency")
	}
	if snap[`sparkgo_cache_tier_ops_total{op="hit",tier="mem"}`] < 1 {
		t.Error("metrics missing mem tier hits")
	}
	if snap["sparkgo_sim_cycles_count"] < 1 {
		t.Error("metrics missing sim cycles")
	}
}

// TestEngineNilBusNoEvents: the uninstrumented engine must work
// exactly as before — this is the nil-bus fast path compiled into
// every instrumentation site.
func TestEngineNilBusNoEvents(t *testing.T) {
	eng := &explore.Engine{SimTrials: 2}
	if pt := eng.Evaluate(context.Background(), explore.Config{N: 2, Preset: core.MicroprocessorBlock}); pt.Err != "" {
		t.Fatalf("evaluation failed: %s", pt.Err)
	}
}
