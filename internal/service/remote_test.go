package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sparkgo/internal/blob"
	"sparkgo/internal/explore"
)

// newNode builds a disk-backed engine plus a blob-serving daemon over
// it, returning the engine and the server's base URL.
func newNode(t *testing.T, remote string) (*explore.Engine, *httptest.Server) {
	t.Helper()
	eng := &explore.Engine{Workers: 2, SimTrials: 1, CacheDir: t.TempDir(), RemoteCache: remote}
	srv := httptest.NewServer(NewServer(NewQueue(eng, 1, 0)))
	t.Cleanup(srv.Close)
	return eng, srv
}

// TestTwoNodeRemoteCache pins the tentpole guarantee: a disk-cold
// engine chained onto a warm peer's /v1/blobs API completes the same
// sweep with ZERO frontend, midend, backend, and point recomputation —
// every artifact arrives over HTTP — and the remote hits backfill its
// local disk, so a third engine over that directory needs neither the
// peer nor recomputation.
func TestTwoNodeRemoteCache(t *testing.T) {
	engA, srvA := newNode(t, "")
	space := explore.Grid([]int{4, 6}, explore.Variants(), []int{0}, true)
	ptsA := engA.Sweep(space)
	for _, p := range ptsA {
		if p.Err != "" {
			t.Fatalf("warm-up sweep failed: %v", p.Err)
		}
	}

	engB, _ := newNode(t, srvA.URL)
	ptsB := engB.Sweep(space)
	if !reflect.DeepEqual(ptsA, ptsB) {
		t.Fatal("remote-warmed sweep disagrees with the origin sweep")
	}
	s := engB.Stats()
	if n := s.PointComputed + s.FrontendComputed + s.MidendComputed + s.BackendComputed; n != 0 {
		t.Fatalf("disk-cold node recomputed %d artifacts with a warm peer: %+v", n, s)
	}
	if s.PointRemoteHits != int64(len(space)) {
		t.Fatalf("PointRemoteHits = %d, want %d: %+v", s.PointRemoteHits, len(space), s)
	}
	if s.RemoteErrors != 0 || s.DiskErrors != 0 {
		t.Fatalf("errors during remote-warmed sweep: %+v", s)
	}
	// Every remote hit must have backfilled B's local tiers.
	if s.DiskBackfills == 0 || s.MemBackfills == 0 {
		t.Fatalf("remote hits did not backfill local tiers: %+v", s)
	}
	// The serving side must have seen the traffic.
	var sv StatsView
	getJSON(t, srvA.URL+"/v1/stats", &sv)
	if sv.Blobs.Gets < 1 || sv.Blobs.Hits < 1 {
		t.Fatalf("node A served no blob traffic: %+v", sv.Blobs)
	}

	// Third engine over B's now-warm disk, no remote: everything local.
	engC := &explore.Engine{Workers: 2, SimTrials: 1, CacheDir: engB.CacheDir}
	ptsC := engC.Sweep(space)
	if !reflect.DeepEqual(ptsA, ptsC) {
		t.Fatal("disk-backfilled sweep disagrees with the origin sweep")
	}
	sc := engC.Stats()
	if n := sc.PointComputed + sc.FrontendComputed + sc.MidendComputed + sc.BackendComputed; n != 0 {
		t.Fatalf("backfilled disk did not serve the sweep: %+v", sc)
	}
	if sc.PointDiskHits != int64(len(space)) {
		t.Fatalf("PointDiskHits = %d, want %d: %+v", sc.PointDiskHits, len(space), sc)
	}
}

// TestTwoNodeWriteThrough pins that the remote tier is written through: a sweep
// on a node chained to a cold peer warms the PEER too — the fleet's
// cache fills from whichever node works first.
func TestTwoNodeWriteThrough(t *testing.T) {
	engA, srvA := newNode(t, "")
	engB, _ := newNode(t, srvA.URL)
	space := explore.Grid([]int{4}, explore.Variants(), []int{0}, false)
	if pts := engB.Sweep(space); pts[0].Err != "" {
		t.Fatalf("sweep failed: %v", pts[0].Err)
	}
	// A never ran a sweep; its disk must still hold B's artifacts.
	ptsA := engA.Sweep(space)
	sa := engA.Stats()
	if sa.PointComputed != 0 {
		t.Fatalf("write-through did not warm the peer: %+v", sa)
	}
	if !reflect.DeepEqual(engB.Sweep(space), ptsA) {
		t.Fatal("peer-served points disagree")
	}
}

// TestBlobAPIRoundTrip exercises the raw /v1/blobs surface: PUT, GET
// (digest header), HEAD, DELETE, unknown kinds, and schema skew.
func TestBlobAPIRoundTrip(t *testing.T) {
	_, srv := newNode(t, "")
	client := srv.Client()
	url := srv.URL + "/v1/blobs/point/somekey"
	payload := []byte("some artifact bytes")
	sum := sha256.Sum256(payload)

	put := func(url string, body []byte, schema string) *http.Response {
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(body)
		req.Header.Set(blob.Sha256Header, hex.EncodeToString(s[:]))
		if schema != "" {
			req.Header.Set(blob.SchemaHeader, schema)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := put(url, payload, explore.DiskSchema()); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %s", resp.Status)
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("GET = %s, %d bytes", resp.Status, len(body))
	}
	if got := resp.Header.Get(blob.Sha256Header); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("GET digest header = %q", got)
	}
	head, err := client.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Fatalf("HEAD = %s", head.Status)
	}

	// Unknown kind: 404. Schema skew: 412. Corrupt digest: 400.
	if resp := put(srv.URL+"/v1/blobs/bogus/k", payload, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PUT bogus kind = %s", resp.Status)
	}
	if resp := put(url, payload, "other-schema"); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("PUT schema skew = %s", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(payload))
	req.Header.Set(blob.Sha256Header, hex.EncodeToString(bytes.Repeat([]byte{0xab}, 32)))
	if resp, err := client.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT wrong digest = %s", resp.Status)
		}
	}

	// DELETE, then the blob is gone.
	req, _ = http.NewRequest(http.MethodDelete, url, nil)
	if resp, err := client.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE = %s", resp.Status)
		}
	}
	if resp, err := client.Get(url); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET after DELETE = %s", resp.Status)
		}
	}
}

// TestRemoteStoreAgainstServer drives the blob.Remote client against a
// real daemon — the exact pairing the remote tier uses — including the
// miss, store, load, and delete verbs, with HEAD probing presence.
func TestRemoteStoreAgainstServer(t *testing.T) {
	_, srv := newNode(t, "")
	r := &blob.Remote{Base: srv.URL, Schema: explore.DiskSchema(), Client: srv.Client()}
	if _, ok, err := r.Get("frontend", "k"); ok || err != nil {
		t.Fatalf("cold Get = ok %v err %v", ok, err)
	}
	if err := r.Put("frontend", "k", []byte("artifact")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := r.Get("frontend", "k")
	if err != nil || !ok || string(data) != "artifact" {
		t.Fatalf("Get = %q, %v, %v", data, ok, err)
	}
	head := func() int {
		t.Helper()
		resp, err := srv.Client().Head(srv.URL + "/v1/blobs/frontend/k")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := head(); code != http.StatusOK {
		t.Fatalf("HEAD = %d, want 200", code)
	}
	if err := r.Delete("frontend", "k"); err != nil {
		t.Fatal(err)
	}
	if code := head(); code != http.StatusNotFound {
		t.Fatalf("HEAD after Delete = %d, want 404", code)
	}
	// Version skew must read as a miss, never as an error or a payload.
	skew := &blob.Remote{Base: srv.URL, Schema: "future-schema", Client: srv.Client()}
	if err := r.Put("frontend", "k2", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := skew.Get("frontend", "k2"); ok || err != nil {
		t.Fatalf("skewed Get = ok %v err %v, want clean miss", ok, err)
	}
}

// TestStatsAttributesTiers: /v1/stats must attribute every lookup of a
// remote-warmed sweep to its tier — remote hits on the engine side,
// blob-API traffic on the serving side.
func TestStatsAttributesTiers(t *testing.T) {
	engA, srvA := newNode(t, "")
	space := explore.Grid([]int{4}, explore.Variants(), []int{0}, false)
	if pts := engA.Sweep(space); pts[0].Err != "" {
		t.Fatalf("warm-up failed: %v", pts[0].Err)
	}
	engB, srvB := newNode(t, srvA.URL)
	engB.Sweep(space)

	var vb StatsView
	getJSON(t, srvB.URL+"/v1/stats", &vb)
	if vb.Engine.PointRemoteHits != int64(len(space)) {
		t.Fatalf("stats view point_remote_hits = %d, want %d", vb.Engine.PointRemoteHits, len(space))
	}
	if vb.Engine.PointComputed != 0 || vb.Engine.FrontendComputed != 0 ||
		vb.Engine.MidendComputed != 0 || vb.Engine.BackendComputed != 0 {
		t.Fatalf("remote-warmed node computed: %+v", vb.Engine)
	}
	if vb.Engine.DiskBackfills == 0 {
		t.Fatalf("stats view missing backfill attribution: %+v", vb.Engine)
	}
	var va StatsView
	getJSON(t, srvA.URL+"/v1/stats", &va)
	if va.Blobs.Gets == 0 || va.Blobs.Hits == 0 {
		t.Fatalf("serving node blob counters empty: %+v", va.Blobs)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	if err := jsonDecode(resp.Body, out); err != nil {
		t.Fatal(err)
	}
}

func jsonDecode(r io.Reader, out any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding %q: %w", data, err)
	}
	return nil
}
