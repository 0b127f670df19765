package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
	b.Publish(Event{Type: TypeStage})
	if s := b.Subscribe(4); s != nil {
		t.Fatal("nil bus returned a subscription")
	}
	b.Unsubscribe(nil)
	if got := b.Stats(); got != (BusStats{}) {
		t.Fatalf("nil bus stats = %+v", got)
	}
	if b.Metrics() != nil || b.Registry() != nil {
		t.Fatal("nil bus exposes metrics")
	}
}

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus(nil)
	s := b.Subscribe(8)
	b.Publish(Event{Type: TypeStage, Stage: "frontend"})
	b.Publish(Event{Type: TypeTier, Tier: "mem", Op: "hit"})
	ev1 := <-s.C
	ev2 := <-s.C
	if ev1.Type != TypeStage || ev2.Type != TypeTier {
		t.Fatalf("got %q then %q", ev1.Type, ev2.Type)
	}
	if ev1.Seq == 0 || ev2.Seq <= ev1.Seq {
		t.Fatalf("sequence not monotonic: %d then %d", ev1.Seq, ev2.Seq)
	}
	if ev1.TimeNs == 0 {
		t.Fatal("event not timestamped")
	}
	st := b.Stats()
	if st.Published != 2 || st.Subscribers != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	b.Unsubscribe(s)
	if _, ok := <-s.C; ok {
		t.Fatal("channel not closed on unsubscribe")
	}
	b.Unsubscribe(s) // idempotent
	if got := b.Stats().Subscribers; got != 0 {
		t.Fatalf("subscribers after unsubscribe = %d", got)
	}
}

func TestBusSlowSubscriberDropsEvents(t *testing.T) {
	b := NewBus(nil)
	s := b.Subscribe(2)
	for i := 0; i < 5; i++ {
		b.Publish(Event{Type: TypeProgress, Done: i})
	}
	if got := s.Dropped(); got != 3 {
		t.Fatalf("subscriber dropped = %d, want 3", got)
	}
	if got := b.Stats().Dropped; got != 3 {
		t.Fatalf("bus dropped = %d, want 3", got)
	}
	// The two buffered events are still the oldest ones.
	if ev := <-s.C; ev.Done != 0 {
		t.Fatalf("first buffered event Done = %d", ev.Done)
	}
	b.Unsubscribe(s)
}

func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus(NewMetrics(NewRegistry()))
	s := b.Subscribe(64)
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(Event{Type: TypeTier, Tier: "mem", Op: "hit"})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for range s.C {
		}
		close(done)
	}()
	wg.Wait()
	b.Unsubscribe(s)
	<-done
	st := b.Stats()
	if st.Published != goroutines*per {
		t.Fatalf("published = %d, want %d", st.Published, goroutines*per)
	}
	hits := b.Registry().Counter(MetricTierOps, "", "tier", "mem", "op", "hit").Value()
	if hits != goroutines*per {
		t.Fatalf("folded hits = %d, want %d", hits, goroutines*per)
	}
}

func TestRegistryPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "A counter.", "kind", "a").Add(3)
	r.Counter("test_total", "A counter.", "kind", "b").Inc()
	h := r.Histogram("test_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(4)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_total A counter.",
		"# TYPE test_total counter",
		`test_total{kind="a"} 3`,
		`test_total{kind="b"} 1`,
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 0`,
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_sum 4.75",
		"test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Families render in sorted order.
	if strings.Index(out, "test_seconds") > strings.Index(out, "test_total") {
		t.Error("families not sorted by name")
	}
}

func TestRegistryLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "", "x", "1", "y", "2")
	b := r.Counter("c_total", "", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	esc := r.Counter("c_total", "", "x", "a\"b\\c\nd")
	esc.Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `x="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "", "k", "v").Add(7)
	r.Histogram("snap_seconds", "", []float64{1}).Observe(0.25)
	snap := r.Snapshot()
	if got := snap[`snap_total{k="v"}`]; got != 7 {
		t.Fatalf("counter snapshot = %v", got)
	}
	if got := snap["snap_seconds_count"]; got != 1 {
		t.Fatalf("histogram count snapshot = %v", got)
	}
	if got := snap["snap_seconds_sum"]; got != 0.25 {
		t.Fatalf("histogram sum snapshot = %v", got)
	}
}

func TestNilMetricsAreInert(t *testing.T) {
	var c *Counter
	var h *Histogram
	var r *Registry
	c.Inc()
	h.Observe(1)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics accumulated values")
	}
	if r.Counter("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry returned metrics")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsFold(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	b := NewBus(m)
	b.Publish(Event{Type: TypeStage, Stage: "frontend", Disposition: DispComputed, DurationNs: 2_000_000})
	b.Publish(Event{Type: TypeStage, Stage: "point", Disposition: DispMem, DurationNs: 1_000})
	b.Publish(Event{Type: TypeTier, Tier: "mem", Op: "hit"})
	b.Publish(Event{Type: TypeTier, Tier: "disk", Op: "backfill"})
	b.Publish(Event{Type: TypeJob, Op: "submitted"})
	b.Publish(Event{Type: TypeSim, Cycles: 100,
		SimInsnsPacked: 40, SimInsnsBoundary: 12, SimInsnsWide: 30, SimInsnsLane: 0})
	b.Publish(Event{Type: TypeSim, Cycles: 50, SimInsnsPacked: 2})
	// Unknown label values take the fallback path.
	b.Publish(Event{Type: TypeStage, Stage: "exotic", Disposition: "weird", DurationNs: 1})
	b.Publish(Event{Type: TypeTier, Tier: "l4", Op: "hit"})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`sparkgo_stage_latency_seconds_count{disposition="computed",stage="frontend"} 1`,
		`sparkgo_stage_latency_seconds_count{disposition="mem",stage="point"} 1`,
		`sparkgo_stage_latency_seconds_count{disposition="weird",stage="exotic"} 1`,
		`sparkgo_cache_tier_ops_total{op="hit",tier="mem"} 1`,
		`sparkgo_cache_tier_ops_total{op="backfill",tier="disk"} 1`,
		`sparkgo_cache_tier_ops_total{op="hit",tier="l4"} 1`,
		`sparkgo_jobs_total{event="submitted"} 1`,
		"sparkgo_sim_cycles_count 2",
		`sparkgo_sim_insns_total{class="packed"} 42`,
		`sparkgo_sim_insns_total{class="boundary"} 12`,
		`sparkgo_sim_insns_total{class="wide"} 30`,
		`sparkgo_sim_insns_total{class="lane"} 0`,
		"sparkgo_events_published_total 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}
