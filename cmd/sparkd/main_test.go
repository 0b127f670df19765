package main

import (
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunDrainsOnSIGTERM boots the daemon on a free port, submits a job
// and sends the process SIGTERM: run must drain and return nil.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	// Registered before run's own handler, so a SIGTERM can never fall
	// through to the default action and kill the test binary.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	defer signal.Stop(sigs)

	addrFile := filepath.Join(t.TempDir(), "sparkd.addr")
	done := make(chan error, 1)
	go func() { done <- run("127.0.0.1:0", addrFile, 1, 1, 0, "", 0, "", 30*time.Second) }()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sparkd never wrote its address")
		}
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
		}
	}
	// A served request means run is past installing its signal handler.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"synth","n":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}
