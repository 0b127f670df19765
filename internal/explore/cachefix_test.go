package explore_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparkgo/internal/blob"
	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
)

// failingConfig is a config whose synthesis always fails (unknown pass
// spec), standing in for any failed evaluation on the full compute path:
// it passes source resolution, misses the disk cache, and dies in the
// frontend stage.
func failingConfig() explore.Config {
	return explore.Config{
		N: 3, Preset: core.MicroprocessorBlock,
		Passes: []string{"frobnicate"},
	}
}

// TestErrorPointsNotPersistedToDisk is the sticky-failure regression
// test: a failed synthesis must not be written to the disk cache, so a
// fresh engine on the same cache directory — a restarted process —
// recomputes instead of serving the old failure forever. On the
// pre-fix engine this fails with PointDiskHits=1, PointComputed=0.
func TestErrorPointsNotPersistedToDisk(t *testing.T) {
	dir := t.TempDir()
	bad := failingConfig()

	first := &explore.Engine{CacheDir: dir}
	if p := first.Evaluate(context.Background(), bad); p.Err == "" {
		t.Fatal("failing config evaluated without error")
	}
	if st := first.Stats(); st.PointComputed != 1 || st.DiskErrors != 0 {
		t.Fatalf("first engine stats: %+v", st)
	}

	restarted := &explore.Engine{CacheDir: dir}
	if p := restarted.Evaluate(context.Background(), bad); p.Err == "" {
		t.Fatal("failing config evaluated without error after restart")
	}
	st := restarted.Stats()
	if st.PointDiskHits != 0 {
		t.Fatalf("restarted engine served the failure from disk: %+v", st)
	}
	if st.PointComputed != 1 {
		t.Fatalf("restarted engine did not recompute the failed config: %+v", st)
	}

	// The disk cache must still work for the good config sharing the
	// same directory — only error points are excluded.
	good := bad
	good.Passes = nil
	if p := first.Evaluate(context.Background(), good); p.Err != "" {
		t.Fatalf("good config failed: %s", p.Err)
	}
	if p := (&explore.Engine{CacheDir: dir}).Evaluate(context.Background(), good); p.Err != "" {
		t.Fatalf("good config failed from disk: %s", p.Err)
	}
}

// TestErrorPointsRetriedInProcess: within one process, a failed
// evaluation must not be memoized forever by the point cache — a later
// Evaluate of the same config retries (concurrent callers still share a
// single in-flight attempt). On the pre-fix engine the second call is a
// memory hit and PointComputed stays 1.
func TestErrorPointsRetriedInProcess(t *testing.T) {
	eng := &explore.Engine{}
	bad := failingConfig()
	if p := eng.Evaluate(context.Background(), bad); p.Err == "" {
		t.Fatal("failing config evaluated without error")
	}
	if p := eng.Evaluate(context.Background(), bad); p.Err == "" {
		t.Fatal("failing config evaluated without error on retry")
	}
	if st := eng.Stats(); st.PointComputed != 2 {
		t.Fatalf("failed config retried %d times, want 2 computations: %+v",
			st.PointComputed, st)
	}

	// Success memoization is untouched: evaluating a good config twice
	// computes once.
	good := failingConfig()
	good.Passes = nil
	eng.Evaluate(context.Background(), good)
	eng.Evaluate(context.Background(), good)
	if st := eng.Stats(); st.PointComputed != 3 || st.PointMemHits != 1 {
		t.Fatalf("good-config memoization regressed: %+v", st)
	}
}

// TestTransientSourceFailureRetried: the no-sticky-errors rule covers
// source resolution too — a generator that fails once (the "source-
// resolution hiccup") must be re-run on the next Evaluate, not served
// from the sources memo forever.
func TestTransientSourceFailureRetried(t *testing.T) {
	calls := 0
	eng := &explore.Engine{Source: func(n int) *ir.Program {
		calls++
		if calls == 1 {
			return nil // transient failure
		}
		return ild.Program(n)
	}}
	c := explore.Config{N: 3, Preset: core.MicroprocessorBlock}
	if p := eng.Evaluate(context.Background(), c); p.Err == "" {
		t.Fatal("first evaluation should fail")
	}
	if p := eng.Evaluate(context.Background(), c); p.Err != "" {
		t.Fatalf("source not retried after transient failure: %s", p.Err)
	}
	if calls != 2 {
		t.Fatalf("generator ran %d times, want 2", calls)
	}
}

// TestPersistentBadStagePayloadComputesUncached: a tier that keeps
// serving verified bytes that do not revive — purged, they come back on
// the retry — costs two disk errors and one uncached compute, never the
// evaluation (the DiskErrors contract: a bad cache never fails a sweep).
func TestPersistentBadStagePayloadComputesUncached(t *testing.T) {
	junk := []byte("not a frontend blob")
	sum := sha256.Sum256(junk)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/blobs/frontend/"):
			w.Header().Set(blob.Sha256Header, hex.EncodeToString(sum[:]))
			w.Write(junk)
		case r.Method == http.MethodGet || r.Method == http.MethodHead:
			http.NotFound(w, r)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer peer.Close()

	eng := &explore.Engine{RemoteCache: peer.URL}
	if p := eng.Evaluate(context.Background(), explore.Config{N: 3, Preset: core.MicroprocessorBlock}); p.Err != "" {
		t.Fatalf("bad cached payload failed the evaluation: %s", p.Err)
	}
	if st := eng.Stats(); st.FrontendComputed != 1 || st.FrontendRemoteHits != 0 || st.DiskErrors != 2 {
		t.Fatalf("want 1 frontend compute, 0 remote hits, 2 disk errors: %+v", st)
	}
}
