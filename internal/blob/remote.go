package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// HTTP headers of the blob protocol. Sha256Header carries the hex
// SHA-256 of the payload body: the server sets it on GET responses
// (the client verifies before trusting the bytes) and clients set it
// on PUT requests (the server verifies before storing). SchemaHeader
// carries the sender's artifact schema string; a server answering for
// a different schema responds 412, which clients read as a miss — a
// version skew across the fleet degrades to local work, never to
// aliased artifacts.
const (
	Sha256Header = "X-Blob-Sha256"
	SchemaHeader = "X-Blob-Schema"
)

// MaxRemoteBytes bounds a single blob payload on the wire — far above
// any real artifact, low enough that a confused peer cannot make a
// client buffer gigabytes.
const MaxRemoteBytes = 256 << 20

// defaultRemoteClient is shared across Remote values so keep-alive
// connections are reused between lookups of one sweep.
var defaultRemoteClient = &http.Client{Timeout: 30 * time.Second}

// Remote is an HTTP client against another node's /v1/blobs API: the
// L3 tier that turns N daemons' disk caches into one logical store.
type Remote struct {
	// Base is the peer's base URL, e.g. "http://host:8341".
	Base string
	// Schema is the artifact schema string sent with every request;
	// the peer rejects mismatches with 412 (read as a miss).
	Schema string
	// Client overrides the HTTP client (nil: a shared 30s-timeout
	// default).
	Client *http.Client
}

func (r *Remote) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return defaultRemoteClient
}

func (r *Remote) blobURL(kind, key string) string {
	return strings.TrimSuffix(r.Base, "/") + "/v1/blobs/" +
		url.PathEscape(kind) + "/" + url.PathEscape(key)
}

func (r *Remote) newRequest(method, kind, key string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, r.blobURL(kind, key), body)
	if err != nil {
		return nil, fmt.Errorf("blob: remote: %w", err)
	}
	if r.Schema != "" {
		req.Header.Set(SchemaHeader, r.Schema)
	}
	return req, nil
}

// Get fetches the payload, verifying the body against the server's
// digest header. 404 (unknown) and 412 (schema skew) are clean misses.
func (r *Remote) Get(kind, key string) ([]byte, bool, error) {
	req, err := r.newRequest(http.MethodGet, kind, key, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := r.client().Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("blob: remote get: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusPreconditionFailed:
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("blob: remote get %s/%s: %s", kind, key, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxRemoteBytes+1))
	if err != nil {
		return nil, false, fmt.Errorf("blob: remote get %s/%s: %w", kind, key, err)
	}
	if len(data) > MaxRemoteBytes {
		return nil, false, fmt.Errorf("blob: remote get %s/%s: payload exceeds %d bytes", kind, key, MaxRemoteBytes)
	}
	want := resp.Header.Get(Sha256Header)
	if want == "" {
		return nil, false, fmt.Errorf("blob: remote get %s/%s: response missing %s", kind, key, Sha256Header)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, false, fmt.Errorf("blob: remote get %s/%s: payload hash mismatch", kind, key)
	}
	return data, true, nil
}

// Put uploads the payload with its digest; the server verifies before
// storing.
func (r *Remote) Put(kind, key string, payload []byte) error {
	req, err := r.newRequest(http.MethodPut, kind, key, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	req.Header.Set(Sha256Header, hex.EncodeToString(sum[:]))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client().Do(req)
	if err != nil {
		return fmt.Errorf("blob: remote put: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("blob: remote put %s/%s: %s", kind, key, resp.Status)
	}
	return nil
}

// Delete removes the payload on the peer; an already-absent payload is
// not an error.
func (r *Remote) Delete(kind, key string) error {
	req, err := r.newRequest(http.MethodDelete, kind, key, nil)
	if err != nil {
		return err
	}
	resp, err := r.client().Do(req)
	if err != nil {
		return fmt.Errorf("blob: remote delete: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("blob: remote delete %s/%s: %s", kind, key, resp.Status)
	}
	return nil
}
