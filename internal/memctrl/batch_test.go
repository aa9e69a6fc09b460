package memctrl

import (
	"testing"

	"repro/internal/xrand"
)

// driveBatchStream runs a deterministic mixed read/write stream with a
// deep window of outstanding reads — the shape that forms row-hit
// bursts: mostly sequential same-row reads, occasional row jumps and
// writebacks, and waits on the *newest* outstanding request so the
// scheduler drains whole bursts before the caller regains control.
func driveBatchStream(c *Channel, seed uint64, trials int) {
	rng := xrand.New(seed)
	at := int64(0)
	addr := uint64(0)
	var pending []*Request
	for i := 0; i < trials; i++ {
		at += int64(rng.Uint64n(2000))
		switch rng.Uint64n(12) {
		case 0: // jump to a fresh row
			addr = rng.Uint64n(1<<26) &^ 63
		case 1: // writeback traffic exercises the pressure guard
			c.SubmitWrite(rng.Uint64n(1<<26)&^63, at)
			continue
		default:
			addr += 64
		}
		pending = append(pending, c.SubmitRead(addr, at))
		if len(pending) >= 32 {
			c.WaitFor(pending[len(pending)-1])
			for _, r := range pending {
				c.Release(r)
			}
			pending = pending[:0]
		}
	}
	for _, r := range pending {
		c.WaitFor(r)
		c.Release(r)
	}
	c.Drain()
}

// TestBatchedServeEquivalence keeps the burst lines of
// testdata/schedule.golden meaningful: they pin the controller's
// schedule on row-hit bursts, so the seed-7 stream must stay row-hit
// dominated on the Table IV baseline and Hetero-DMR channels rather
// than silently turn into a row-miss stream.
func TestBatchedServeEquivalence(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Channel
	}{
		{"baseline", baselineChannel},
		{"hdmr", hdmrChannel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk()
			driveBatchStream(c, 7, 6000)
			if s := c.Stats(); s.RowHits <= s.RowMisses+s.RowConflicts {
				t.Errorf("burst stream is not row-hit dominated: %d hits, %d misses, %d conflicts",
					s.RowHits, s.RowMisses, s.RowConflicts)
			}
		})
	}
}
