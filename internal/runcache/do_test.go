package runcache

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// parkedInDo counts the goroutines blocked in Do itself on another
// caller's flight (a leader blocked inside its compute does not count).
func parkedInDo() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") &&
			strings.HasPrefix(lines[1], "repro/internal/runcache.(*Cache).Do(") {
			n++
		}
	}
	return n
}

// waitParked blocks until n goroutines wait on a flight in Do.
func waitParked(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parkedInDo() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines waiting in Do, want %d", parkedInDo(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func flightsLeft(c *Cache) int {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	return len(c.flights)
}

type doResult struct {
	payload  []byte
	computed bool
	err      error
	panicked any
}

// doAsync calls c.Do(k, compute) on a new goroutine and delivers the
// outcome, including a recovered panic, on the returned channel.
func doAsync(c *Cache, k Key, compute func() ([]byte, error)) <-chan doResult {
	out := make(chan doResult, 1)
	go func() {
		var r doResult
		defer func() {
			r.panicked = recover()
			out <- r
		}()
		r.payload, r.computed, r.err = c.Do(k, compute)
	}()
	return out
}

// leaderAndWaiters starts a Do whose compute blocks until the given
// number of waiters, each calling Do with follow, are parked on its
// flight, and then runs lead. It returns the leader's outcome and the
// waiters'.
func leaderAndWaiters(t *testing.T, c *Cache, k Key, waiters int, lead, follow func() ([]byte, error)) (doResult, []doResult) {
	t.Helper()
	inCompute, release := make(chan struct{}), make(chan struct{})
	leader := doAsync(c, k, func() ([]byte, error) {
		close(inCompute)
		<-release
		return lead()
	})
	<-inCompute
	outs := make([]<-chan doResult, waiters)
	for i := range outs {
		outs[i] = doAsync(c, k, follow)
	}
	waitParked(t, waiters)
	close(release)
	lr := <-leader
	rs := make([]doResult, waiters)
	for i, ch := range outs {
		rs[i] = <-ch
	}
	return lr, rs
}

// TestDoComputesOnceForConcurrentCallers: N callers of one key run
// compute once, all receive the same bytes, exactly one of them reports
// computed, and the waits are counted as coalesced.
func TestDoComputesOnceForConcurrentCallers(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("v1", sampleValue())
	want := []byte("computed once")
	const n = 8
	var calls atomic.Int64
	release := make(chan struct{})
	results := make([]doResult, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			r := &results[slot]
			r.payload, r.computed, r.err = c.Do(k, func() ([]byte, error) {
				calls.Add(1)
				<-release
				return append([]byte(nil), want...), nil
			})
		}(i)
	}
	waitParked(t, n-1)
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	computed := 0
	for i, r := range results {
		if r.err != nil || !bytes.Equal(r.payload, want) {
			t.Errorf("caller %d: payload %q err %v", i, r.payload, r.err)
		}
		if r.computed {
			computed++
		}
	}
	if computed != 1 {
		t.Errorf("%d callers report computed, want 1", computed)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Coalesced != n-1 || st.Puts != 1 {
		t.Errorf("stats %+v, want 1 miss, 0 hits, %d coalesced, 1 put", st, n-1)
	}
	if flightsLeft(c) != 0 {
		t.Errorf("%d flights left", flightsLeft(c))
	}
	// The entry is stored: a later call is a hit, not a computation.
	p, comp, err := c.Do(k, func() ([]byte, error) { t.Error("stored entry recomputed"); return nil, nil })
	if err != nil || comp || !bytes.Equal(p, want) {
		t.Errorf("later Do: payload %q computed %v err %v", p, comp, err)
	}
	if st := c.Stats(); st.Hits+st.Misses+st.Coalesced != n+1 {
		t.Errorf("stats %+v do not add up to %d calls", st, n+1)
	}
}

// TestDoLeaderPanicReachesOnlyLeader: a leader whose compute panics
// publishes nothing; the panic surfaces in its goroutine alone, one
// waiter computes instead, every waiter gets that payload, and no flight
// is left behind.
func TestDoLeaderPanicReachesOnlyLeader(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("v1", "panic")
	want := []byte("second leader")
	var calls atomic.Int64
	lr, rs := leaderAndWaiters(t, c, k, 4,
		func() ([]byte, error) { panic("compute exploded") },
		func() ([]byte, error) { calls.Add(1); return want, nil })
	if lr.panicked == nil {
		t.Fatal("leader's panic did not reach the leader")
	}
	computed := 0
	for i, r := range rs {
		if r.panicked != nil || r.err != nil || !bytes.Equal(r.payload, want) {
			t.Errorf("waiter %d: payload %q err %v panic %v", i, r.payload, r.err, r.panicked)
		}
		if r.computed {
			computed++
		}
	}
	if calls.Load() != 1 || computed != 1 {
		t.Errorf("after the panic compute ran %d times, %d waiters report computed; want 1 and 1", calls.Load(), computed)
	}
	if flightsLeft(c) != 0 {
		t.Errorf("%d flights left after a panic", flightsLeft(c))
	}
	if got, ok := c.Get(k); !ok || !bytes.Equal(got, want) {
		t.Error("the new leader's payload was not stored")
	}
}

// TestDoLeaderErrorWaitersRetry: a leader whose compute errors gets the
// error, and its waiters retry rather than share it.
func TestDoLeaderErrorWaitersRetry(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("v1", "error")
	boom := errors.New("compute failed")
	want := []byte("retried")
	var calls atomic.Int64
	lr, rs := leaderAndWaiters(t, c, k, 3,
		func() ([]byte, error) { return nil, boom },
		func() ([]byte, error) { calls.Add(1); return want, nil })
	if !errors.Is(lr.err, boom) || !lr.computed || lr.payload != nil {
		t.Errorf("leader: payload %q computed %v err %v, want compute's error", lr.payload, lr.computed, lr.err)
	}
	for i, r := range rs {
		if r.err != nil || !bytes.Equal(r.payload, want) {
			t.Errorf("waiter %d: payload %q err %v", i, r.payload, r.err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("waiters computed %d times, want 1", calls.Load())
	}
	if st := c.Stats(); st.Misses != 2 || st.Puts != 1 {
		t.Errorf("stats %+v, want 2 misses (leader and retry) and 1 put", st)
	}
	if flightsLeft(c) != 0 {
		t.Errorf("%d flights left after an error", flightsLeft(c))
	}
}

// TestDoWaitersSurviveFaultedPut: with a full disk or a torn write on the
// leader's Put, the waiters still receive the leader's in-memory bytes.
// Nothing usable is stored, so a later Do computes again — after a torn
// put through the corrupt-miss path — and stores the entry.
func TestDoWaitersSurviveFaultedPut(t *testing.T) {
	for _, site := range []faultinject.Site{FaultPutENOSPC, FaultPutTorn} {
		t.Run(string(site), func(t *testing.T) {
			plan := faultinject.New(1).Arm(site, faultinject.Rule{P: 1, Count: 1})
			c := faultedCache(t, plan)
			k := KeyOf("v1", string(site))
			want := []byte("the leader's bytes, whatever reached the disk")
			lr, rs := leaderAndWaiters(t, c, k, 3,
				func() ([]byte, error) { return want, nil },
				func() ([]byte, error) { t.Error("waiter computed"); return nil, nil })
			if lr.err != nil || !lr.computed || !bytes.Equal(lr.payload, want) {
				t.Fatalf("leader: payload %q computed %v err %v", lr.payload, lr.computed, lr.err)
			}
			for i, r := range rs {
				if r.err != nil || r.computed || !bytes.Equal(r.payload, want) {
					t.Errorf("waiter %d: payload %q computed %v err %v", i, r.payload, r.computed, r.err)
				}
			}
			if plan.Injected(site) != 1 {
				t.Fatalf("%s injected %d times", site, plan.Injected(site))
			}

			p, comp, err := c.Do(k, func() ([]byte, error) { return want, nil })
			if err != nil || !comp || !bytes.Equal(p, want) {
				t.Errorf("Do after the faulted put: payload %q computed %v err %v, want a recomputation", p, comp, err)
			}
			st := c.Stats()
			if site == FaultPutTorn && st.Corrupt != 1 {
				t.Errorf("stats %+v: the torn entry was not a corrupt miss", st)
			}
			if got, ok := c.Get(k); !ok || !bytes.Equal(got, want) {
				t.Error("the recomputed entry was not stored")
			}
		})
	}
}
