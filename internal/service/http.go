package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"sparkgo/internal/blob"
	"sparkgo/internal/explore"
)

// errStreamingUnsupported is answered when the transport cannot flush —
// SSE needs an http.Flusher.
var errStreamingUnsupported = errors.New("service: response writer does not support streaming")

// Server wires the queue to the HTTP API cmd/sparkd serves. Use
// NewServer and mount the handler; job payloads are JSON, blob payloads
// raw bytes.
type Server struct {
	queue   *Queue
	mux     *http.ServeMux
	started time.Time

	// Blob-API traffic counters (the server side of peers' remote
	// tiers), snapshotted into /v1/stats.
	blobGets    atomic.Int64
	blobHits    atomic.Int64
	blobPuts    atomic.Int64
	blobDeletes atomic.Int64
	blobErrors  atomic.Int64
}

// NewServer builds the HTTP front end over a queue.
func NewServer(q *Queue) *Server {
	s := &Server{queue: q, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.jobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	// "GET" patterns also match HEAD (presence probe without the body).
	s.mux.HandleFunc("GET /v1/blobs/{kind}/{key}", s.blobGet)
	s.mux.HandleFunc("PUT /v1/blobs/{kind}/{key}", s.blobPut)
	s.mux.HandleFunc("DELETE /v1/blobs/{kind}/{key}", s.blobDelete)
	s.mux.HandleFunc("GET /v1/stats", s.stats)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxSubmitBytes caps a POST /v1/jobs body. Requests are small JSON
// objects whose largest field is an inline source (a few KB for the ILD
// family), so 1 MiB leaves ample headroom while keeping one client from
// making the daemon buffer an arbitrarily large body.
const maxSubmitBytes = 1 << 20

// submit handles POST /v1/jobs: decode, enqueue (or attach to the
// in-flight identical job), and answer 202 with the job view. A deduped
// submit is flagged so clients know they are polling shared work. A
// body over maxSubmitBytes fails to decode and is answered 400.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, deduped, err := s.queue.Submit(req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	v := s.queue.View(job, false)
	v.Deduped = deduped
	writeJSON(w, http.StatusAccepted, v)
}

// list handles GET /v1/jobs: every job in issue order, without results.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.List())
}

// get handles GET /v1/jobs/{id}: the poll endpoint; terminal jobs carry
// their result (points, frontier, trajectory) inline.
func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, s.queue.View(job, true))
}

// cancel handles DELETE /v1/jobs/{id}: queued jobs die immediately,
// running jobs stop at the next evaluation-batch boundary. The response
// is the job's state at cancel time; clients poll for the terminal
// status.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, s.queue.View(job, true))
}

// blobCheck validates the {kind} path element and the schema header
// shared by every blob handler. Unknown kinds are 404; a schema skew is
// 412 (precondition failed), which remote-tier clients read as a clean
// miss — version skew across a fleet degrades to local work instead of
// aliasing artifacts across schemas.
func (s *Server) blobCheck(w http.ResponseWriter, r *http.Request) (kind, key string, ok bool) {
	kind, key = r.PathValue("kind"), r.PathValue("key")
	if !explore.ValidArtifactKind(kind) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown blob kind %q", kind))
		return "", "", false
	}
	if h := r.Header.Get(blob.SchemaHeader); h != "" && h != explore.DiskSchema() {
		w.Header().Set(blob.SchemaHeader, explore.DiskSchema())
		writeError(w, http.StatusPreconditionFailed,
			fmt.Errorf("schema mismatch: server %s, request %s", explore.DiskSchema(), h))
		return "", "", false
	}
	return kind, key, true
}

// blobGet handles GET and HEAD /v1/blobs/{kind}/{key}: the read side of
// the remote cache tier. Payloads are served from the daemon's local
// tiers only (memory, disk) — never proxied through its own remote
// tier, so chained daemons cannot loop. Responses carry the payload
// digest for end-to-end verification; a corrupt payload reads as
// absent. HEAD answers the same way but is not counted as blob traffic.
func (s *Server) blobGet(w http.ResponseWriter, r *http.Request) {
	kind, key, ok := s.blobCheck(w, r)
	if !ok {
		return
	}
	get := r.Method == http.MethodGet
	if get {
		s.blobGets.Add(1)
	}
	data, found, err := s.queue.Engine().LocalBlobs().Get(kind, key)
	if err != nil {
		s.blobErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("blob %s/%s not found", kind, key))
		return
	}
	if get {
		s.blobHits.Add(1)
	}
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set(blob.Sha256Header, hex.EncodeToString(sum[:]))
	w.Header().Set(blob.SchemaHeader, explore.DiskSchema())
	_, _ = w.Write(data)
}

// blobPut handles PUT /v1/blobs/{kind}/{key}: the write-through side of
// the remote tier. The declared digest (when present) is verified before
// anything is stored, so a truncated upload cannot poison the cache.
func (s *Server) blobPut(w http.ResponseWriter, r *http.Request) {
	kind, key, ok := s.blobCheck(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, blob.MaxRemoteBytes))
	if err != nil {
		s.blobErrors.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading blob body: %w", err))
		return
	}
	if want := r.Header.Get(blob.Sha256Header); want != "" {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want {
			s.blobErrors.Add(1)
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("blob %s/%s: payload hash mismatch", kind, key))
			return
		}
	}
	if err := s.queue.Engine().LocalBlobs().Put(kind, key, body); err != nil {
		s.blobErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.blobPuts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// blobDelete handles DELETE /v1/blobs/{kind}/{key}; deleting an absent
// blob succeeds.
func (s *Server) blobDelete(w http.ResponseWriter, r *http.Request) {
	kind, key, ok := s.blobCheck(w, r)
	if !ok {
		return
	}
	if err := s.queue.Engine().LocalBlobs().Delete(kind, key); err != nil {
		s.blobErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.blobDeletes.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// stats handles GET /v1/stats, attaching the server's blob-API counters
// to the queue's snapshot.
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	v := s.queue.Stats()
	v.Blobs = BlobTrafficView{
		Gets:    s.blobGets.Load(),
		Hits:    s.blobHits.Load(),
		Puts:    s.blobPuts.Load(),
		Deletes: s.blobDeletes.Load(),
		Errors:  s.blobErrors.Load(),
	}
	writeJSON(w, http.StatusOK, v)
}

// metrics handles GET /metrics: the engine bus's folded metrics in
// Prometheus text exposition format, followed by the Go runtime's heap
// readings. A daemon whose engine runs without a bus serves only the
// runtime series rather than 404, so scrape configs need not care how
// the daemon was wired.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.queue.Engine().Obs.Registry().WritePrometheus(w) != nil {
		return
	}
	writeRuntimeMetrics(w)
}

// runtimeSeries are the runtime/metrics samples /metrics reads at
// scrape time, so an operator sees the heap a live daemon holds.
var runtimeSeries = []struct{ name, typ, help, sample string }{
	{"go_heap_objects_bytes", "gauge", "Bytes in heap objects, live and not yet swept.", "/memory/classes/heap/objects:bytes"},
	{"go_memory_total_bytes", "gauge", "All memory mapped by the Go runtime.", "/memory/classes/total:bytes"},
	{"go_gc_cycles_total", "counter", "Completed GC cycles.", "/gc/cycles/total:gc-cycles"},
}

// writeRuntimeMetrics renders runtimeSeries in text exposition format.
func writeRuntimeMetrics(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeSeries))
	for i, rs := range runtimeSeries {
		samples[i].Name = rs.sample
	}
	metrics.Read(samples)
	for i, rs := range runtimeSeries {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			rs.name, rs.help, rs.name, rs.typ, rs.name, samples[i].Value.Uint64())
	}
}

// healthView is the /healthz payload.
type healthView struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
}

// healthz handles GET /healthz: liveness for load balancers and CI,
// with enough build identity to tell which binary is answering.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	v := healthView{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				v.Revision = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, v)
}
