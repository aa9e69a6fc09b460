package shard

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBreakerLateSuccessKeepsItOpen: a dispatch sent before the breaker
// opened and answered after leaves it open, so the failures that follow
// count no second death; only the probe's success closes it.
func TestBreakerLateSuccessKeepsItOpen(t *testing.T) {
	reg := obs.NewRegistry()
	b := &breaker{
		threshold:  2,
		probeAfter: time.Hour,
		opens:      reg.Counter("open"),
		halfopens:  reg.Counter("halfopen"),
		closes:     reg.Counter("close"),
		deaths:     reg.Counter("deaths"),
	}
	b.failure()
	b.failure()
	b.success() // the straggler's late answer
	if !b.isOpen() {
		t.Fatal("a late success closed the breaker")
	}
	b.failure()
	b.failure()
	b.probeAfter = 0
	if !b.allow() {
		t.Fatal("no probe admitted after the probe window")
	}
	b.success()
	if b.isOpen() {
		t.Fatal("the probe's success left the breaker open")
	}
	c := reg.Snapshot().Counters
	if c["deaths"] != 1 || c["close"] != 1 || c["halfopen"] != 1 {
		t.Errorf("counters %v, want one death, one probe and one close", c)
	}
}
