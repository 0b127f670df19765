package explore

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"
)

// TestLookupRetriesForeignCancellation: a caller that joins a flight
// whose leader is cancelled mid-compute must not inherit the leader's
// cancellation. With its own context alive it runs the lookup again and
// gets its own value.
func TestLookupRetriesForeignCancellation(t *testing.T) {
	e := &Engine{}
	revive := func(data []byte) (int, error) { return strconv.Atoi(string(data)) }

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := lookup(leaderCtx, e, stagePoint, "k", func() (int, []byte, error) {
			close(started)
			<-leaderCtx.Done()
			return 0, nil, leaderCtx.Err()
		}, revive)
		leaderErr <- err
	}()
	<-started

	type result struct {
		v   int
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, err := lookup(context.Background(), e, stagePoint, "k", func() (int, []byte, error) {
			return 42, []byte("42"), nil
		}, revive)
		waiter <- result{v, err}
	}()
	// Give the waiter time to join the leader's flight. Arriving late
	// only makes it the leader of a fresh flight, which passes too.
	time.Sleep(50 * time.Millisecond)
	cancel()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: got %v, want context.Canceled", err)
	}
	got := <-waiter
	if got.err != nil || got.v != 42 {
		t.Fatalf("waiter with a live context: got (%d, %v), want (42, nil)", got.v, got.err)
	}
}
