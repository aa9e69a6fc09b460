package shard

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// breaker is the per-worker circuit breaker behind Pool dispatch. It
// replaces the old one-way "dead" flag: a worker that fails threshold
// consecutive dispatches opens the breaker and its slots demote to local
// execution, but after probeAfter one dispatch is let through as a
// probe (half-open). A successful probe closes the breaker and the
// worker rejoins the fleet; a failed probe re-opens the window. The
// degradation ladder never blocks on a broken worker and never writes
// one off forever.
//
// Counters (shared across the pool's workers): shard/breaker/open counts
// every open transition including re-opens after a failed probe,
// shard/breaker/halfopen counts probes admitted, shard/breaker/close
// counts recoveries. shard/worker_deaths keeps its historical meaning —
// closed→open transitions only — so existing dashboards and tests see
// the same signal as before re-probing existed.
type breaker struct {
	threshold  int
	probeAfter time.Duration

	mu       sync.Mutex
	open     bool
	probing  bool // a half-open probe dispatch is in flight
	fails    int  // consecutive failures while closed
	openedAt time.Time

	opens, halfopens, closes, deaths *obs.Counter
}

// allow reports whether the caller may dispatch to this worker. While
// open it returns false — except once per probeAfter window, when the
// caller is admitted as the half-open probe.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if !b.probing && time.Since(b.openedAt) >= b.probeAfter {
		b.probing = true
		b.halfopens.Add(1)
		return true
	}
	return false
}

// success records a completed dispatch: resets the failure streak and,
// if this was the probe, closes the breaker. A dispatch that was already
// in flight when the breaker tripped leaves it open, so only a probe
// returns a worker to the fleet and a late straggler cannot re-arm a
// dying worker for a second death.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.probing {
		b.open = false
		b.probing = false
		b.closes.Add(1)
	}
}

// failure records a failed dispatch. While open (the probe, or a
// dispatch that was already in flight when the breaker tripped) it
// restarts the probe window; while closed it counts toward the
// threshold and trips the breaker when reached.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open {
		b.probing = false
		b.openedAt = time.Now()
		b.opens.Add(1)
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.open = true
		b.openedAt = time.Now()
		b.opens.Add(1)
		b.deaths.Add(1)
	}
}

// isOpen reports the breaker's state (tests and diagnostics).
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}
