package memctrl

import (
	"repro/internal/dram"
	"repro/internal/obs"
)

// Conservation holds the always-on flow counters the conservation checker
// balances against Stats. They are deliberately separate from Stats: Stats
// is what the figures consume, these exist only to prove Stats correct.
type Conservation struct {
	ReadsSubmitted  uint64 // SubmitRead calls
	WritesSubmitted uint64 // SubmitWrite calls
	WBParked        uint64 // writes newly parked in the writeback cache
	WBCoalesced     uint64 // writes merged with an already-parked block
	WBDrained       uint64 // parked blocks moved into the write queue
	ExtraRankWrites uint64 // per-broadcast extra rank WRs (len(targets)-1)
	FastReads       uint64 // reads served while unsafely fast (error-eligible)
	ToFast          uint64 // transitions to the fast operating point
	ToSlow          uint64 // transitions back to specification
	EnterWrite      uint64 // write-drain spurts started
	EnterRead       uint64 // write-drain spurts ended
}

// Conservation returns a copy of the channel's flow counters.
func (c *Channel) Conservation() Conservation { return c.consv }

// Observe attaches an observability registry. scope must be unique per
// channel (e.g. "fig12/dmr/lbm/seed7/chan2"): it names the flight
// recorder and prefixes every metric. A nil registry detaches.
func (c *Channel) Observe(reg *obs.Registry, scope string) {
	c.obsReg = reg
	c.obsScope = scope
	if reg == nil {
		c.rec = nil
		c.readQHist = nil
		c.writeQHist = nil
		return
	}
	c.rec = reg.Recorder(scope)
	qBounds := []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	c.readQHist = reg.Histogram(scope+"/readq_depth", qBounds)
	c.writeQHist = reg.Histogram(scope+"/writeq_depth", qBounds)
}

// PublishMetrics exports the per-channel DRAM command counts
// (ACT/RD/WR/PRE/REF/SRE/SRX) and flow counters into the attached
// registry. Call it once after the simulation; it is a no-op when no
// registry is attached.
func (c *Channel) PublishMetrics() {
	reg := c.obsReg
	if reg == nil {
		return
	}
	var act, rd, wr, pre, ref, sre, srx uint64
	for _, r := range c.ranks {
		for b := 0; b < r.Banks(); b++ {
			bank := r.Bank(b)
			act += bank.Activates
			pre += bank.Precharges
		}
		rd += r.Reads
		wr += r.Writes
		ref += r.Refreshes
		sre += r.SelfRefEnters
		srx += r.SelfRefExits
	}
	p := c.obsScope
	reg.Counter(p + "/cmd/ACT").Add(act)
	reg.Counter(p + "/cmd/RD").Add(rd)
	reg.Counter(p + "/cmd/WR").Add(wr)
	reg.Counter(p + "/cmd/PRE").Add(pre)
	reg.Counter(p + "/cmd/REF").Add(ref)
	reg.Counter(p + "/cmd/SRE").Add(sre)
	reg.Counter(p + "/cmd/SRX").Add(srx)
	reg.Counter(p + "/ecc/detected").Add(c.stats.DetectedErrors)
	reg.Counter(p + "/ecc/corrected").Add(c.stats.Corrections)
	reg.Counter(p + "/flow/reads_submitted").Add(c.consv.ReadsSubmitted)
	reg.Counter(p + "/flow/writes_submitted").Add(c.consv.WritesSubmitted)
	reg.Counter(p + "/flow/wb_parked").Add(c.consv.WBParked)
	reg.Counter(p + "/flow/wb_coalesced").Add(c.consv.WBCoalesced)
	reg.Counter(p + "/flow/wb_drained").Add(c.consv.WBDrained)
}

// CheckConservation verifies the channel's accounting invariants. Call it
// after Drain (the queue-empty checks assume a quiesced channel); it
// reports every failed invariant under the given source name.
func (c *Channel) CheckConservation(source string) []obs.Violation {
	ck := obs.NewChecker(source)
	s := c.stats
	v := c.consv

	// A quiesced channel holds no work.
	ck.Check(c.readQ.len() == 0, "read-queue-empty", "%d reads still queued", c.readQ.len())
	ck.Check(c.writeQ.len() == 0, "write-queue-empty", "%d writes still queued", c.writeQ.len())
	parked := 0
	if c.wb != nil {
		parked = c.wb.len()
	}
	ck.Check(parked == 0, "wbcache-empty", "%d blocks still parked", parked)
	ck.Check(!c.writeMode, "out-of-write-mode", "channel still draining a spurt")

	// Every submitted read was served exactly once: by DRAM or by a
	// write-path forward, and each produced one latency sample.
	ck.CheckEq(int64(s.Reads+s.WriteForwards), int64(v.ReadsSubmitted), "reads-enqueued==reads-served")
	ck.CheckEq(int64(s.ReadCount), int64(v.ReadsSubmitted), "read-latency-samples==reads-enqueued")

	// Writes retired == submitted − coalesced-in-wbCache + proactive
	// cleans, and every wbCache park was eventually drained.
	ck.CheckEq(int64(s.Writes), int64(v.WritesSubmitted-v.WBCoalesced+s.CleanedBlocks),
		"writes-retired==submitted-coalesced+cleans")
	ck.CheckEq(int64(v.WBDrained), int64(v.WBParked), "wbcache-parks==drains")

	// Each DRAM access was classified exactly once.
	ck.CheckEq(int64(s.RowHits+s.RowMisses+s.RowConflicts), int64(s.Reads+s.Writes),
		"row-outcomes==dram-accesses")

	// Frequency switches strictly paired fast→spec→fast: the channel can
	// be at most one unmatched switch ahead, and the Stats total must
	// decompose into transitions plus the two switches per correction.
	unmatched := int64(0)
	if c.fastMode {
		unmatched = 1
	}
	ck.CheckEq(int64(v.ToFast)-int64(v.ToSlow), unmatched, "freq-switches-paired")
	ck.CheckEq(int64(s.FreqSwitches), int64(v.ToFast+v.ToSlow+2*s.Corrections), "freq-switch-total")

	// Write-drain spurts strictly paired enter-write/enter-read.
	ck.CheckEq(int64(v.EnterWrite), int64(v.EnterRead), "mode-switches-paired")
	ck.CheckEq(int64(s.ModeSwitches), int64(v.EnterWrite+v.EnterRead), "mode-switch-total")

	// ECC: every detected copy error was corrected, and detections can
	// only come from reads served at the unsafe operating point.
	ck.CheckEq(int64(s.Corrections), int64(s.DetectedErrors), "ecc-detects==corrections")
	ck.Check(s.DetectedErrors <= v.FastReads, "ecc-detects<=fast-reads",
		"%d detects, %d fast reads", s.DetectedErrors, v.FastReads)

	// Rank-level command tallies match the controller's view; broadcast
	// writes issue one extra rank WR per copy.
	var rankReads, rankWrites uint64
	for _, r := range c.ranks {
		rankReads += r.Reads
		rankWrites += r.Writes
	}
	ck.CheckEq(int64(rankReads), int64(s.Reads), "rank-reads==channel-reads")
	ck.CheckEq(int64(rankWrites), int64(s.Writes+v.ExtraRankWrites),
		"rank-writes==channel-writes+broadcast-extras")

	// Per-bank ACT/PRE balance and per-rank SRE/SRX balance (one command
	// may be unmatched for a row/rank left open/parked).
	for ri, r := range c.ranks {
		for b := 0; b < r.Banks(); b++ {
			bank := r.Bank(b)
			open := uint64(0)
			if bank.OpenRow() != dram.RowClosed {
				open = 1
			}
			ck.Check(bank.Activates == bank.Precharges+open, "bank-act==pre",
				"rank %d bank %d: %d ACT, %d PRE, open=%d", ri, b, bank.Activates, bank.Precharges, open)
		}
		in := uint64(0)
		if r.InSelfRefresh() {
			in = 1
		}
		ck.Check(r.SelfRefEnters == r.SelfRefExits+in, "rank-sre==srx",
			"rank %d: %d SRE, %d SRX, in=%d", ri, r.SelfRefEnters, r.SelfRefExits, in)
	}
	return ck.Violations()
}
