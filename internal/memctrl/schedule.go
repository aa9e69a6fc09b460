package memctrl

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/dramspec"
)

// ForwardLatency is the latency of a read satisfied from the write path
// (write buffer or writeback cache) without touching DRAM.
const ForwardLatency = 6 * dramspec.Nanosecond

// hitStreakCap bounds consecutive row-hit service per bank so FR-FCFS
// stays fair to row-miss requesters ("FR-FCFS scheduling policy with bank
// fairness", Table IV).
const hitStreakCap = 16

// correctionPenalty returns the timing cost of the §III-C correction flow
// for a detected copy error: slow the channel to specification, exit the
// originals from self-refresh, read the original at spec, overwrite the
// copy, re-enter self-refresh, and speed back up — two frequency switches
// around a spec-speed access pair.
func (c *Channel) correctionPenalty() int64 {
	t := c.cfg.Spec.Timing
	specAccess := t.TRCD + t.TCL + c.cfg.Spec.BurstPS()
	return 2*dramspec.FrequencySwitchLatency + 2*specAccess
}

// SubmitRead enqueues a read for block addr arriving at time `at` and
// returns its request handle; poll handle.Done or call WaitFor. Reads
// that hit the pending-write path are forwarded immediately. Arrival
// times must be non-decreasing across Submit calls.
func (c *Channel) SubmitRead(addr uint64, at int64) *Request {
	if at < c.lastSubmit {
		// The non-decreasing contract is what makes the queue head the
		// oldest pending arrival (see nextEventTime); a violation would
		// silently mis-schedule, so fail loudly instead.
		panic(fmt.Sprintf("memctrl: SubmitRead arrival %d before previous %d", at, c.lastSubmit))
	}
	c.lastSubmit = at
	c.consv.ReadsSubmitted++
	req := c.newRequest(addr, at)
	block := addr / uint64(c.cfg.BlockBytes)
	// Forward from the write path: the youngest version of the block is
	// in the write buffer or the writeback cache.
	if c.pendingWrite(block) {
		start := at
		if c.now > start {
			start = c.now
		}
		req.Done = start + ForwardLatency
		c.stats.WriteForwards++
		c.stats.ReadLatencySumPS += req.Done - req.Arrive
		c.stats.ReadCount++
		return req
	}
	for c.readQ.len() >= c.cfg.ReadQueueCap {
		if !c.step() {
			panic("memctrl: read queue full but nothing schedulable")
		}
	}
	c.readQ.push(req)
	c.chainPushRead(req)
	return req
}

// newRequest takes a request from the freelist (or allocates the pool's
// next one) and initializes it for addr.
func (c *Channel) newRequest(addr uint64, at int64) *Request {
	var req *Request
	if n := len(c.freeReqs); n > 0 {
		req = c.freeReqs[n-1]
		c.freeReqs[n-1] = nil
		c.freeReqs = c.freeReqs[:n-1]
		*req = Request{gen: req.gen}
	} else {
		req = &Request{}
	}
	req.Addr = addr
	req.Arrive = at
	req.rank, req.bank, req.row = c.decode(addr)
	return req
}

// recycle returns a request nothing can reach anymore to the freelist.
func (c *Channel) recycle(req *Request) {
	if DebugPooling {
		c.assertLive(req, "recycle")
		req.pooled = true
	}
	req.gen++
	c.freeReqs = append(c.freeReqs, req)
}

// Release hands a read request handle back to the channel for recycling.
// Call it once the caller is done with the handle — after WaitFor, or
// immediately for a fire-and-forget prefetch; the controller recycles the
// request as soon as it is also complete. The handle must not be touched
// after Release. Releasing is optional: callers that keep handles (tests,
// external pollers) simply leave those requests to the garbage collector.
func (c *Channel) Release(req *Request) {
	if req == nil {
		return
	}
	if DebugPooling {
		c.assertLive(req, "Release")
		if req.released && req.Done == 0 {
			panic("memctrl: double Release of a pending request")
		}
	}
	if req.Done != 0 {
		c.recycle(req)
		return
	}
	req.released = true
}

// SubmitWrite enqueues a writeback of block addr arriving at time `at`.
// Writes are posted: the caller never waits on them.
func (c *Channel) SubmitWrite(addr uint64, at int64) {
	c.consv.WritesSubmitted++
	block := addr / uint64(c.cfg.BlockBytes)
	if c.wb != nil && !c.writeMode {
		switch c.wb.insert(block) {
		case wbParked:
			c.consv.WBParked++
			return
		case wbCoalesced:
			c.consv.WBCoalesced++
			return
		}
		// wbRejected: fall through to the write buffer.
	}
	for c.writeQ.len() >= c.cfg.WriteQueueCap && !c.writeMode {
		if !c.step() {
			panic("memctrl: write queue full but nothing schedulable")
		}
	}
	c.pushWrite(c.newRequest(addr, at))
}

// pushWrite enqueues a write and indexes its block in wqBlocks so the
// read path's forwarding check stays O(1). All writeQ pushes go through
// here; serveWrite un-indexes on retire.
func (c *Channel) pushWrite(req *Request) {
	c.writeQ.push(req)
	c.chainPushWrite(req)
	c.wqBlocks.Inc(req.Addr / uint64(c.cfg.BlockBytes))
}

// pendingWrite reports whether a block has an outstanding write.
func (c *Channel) pendingWrite(block uint64) bool {
	if c.wb != nil && c.wb.contains(block) {
		return true
	}
	return c.wqBlocks.Count(block) != 0
}

// WaitFor simulates until req completes and returns its completion time.
func (c *Channel) WaitFor(req *Request) int64 {
	if DebugPooling {
		c.assertLive(req, "WaitFor")
	}
	for req.Done == 0 {
		if !c.step() {
			panic("memctrl: waiting on a request but nothing schedulable")
		}
	}
	return req.Done
}

// Drain services every queued request (including parked writebacks) and
// returns the time the channel went idle.
func (c *Channel) Drain() int64 {
	for {
		for c.step() {
		}
		pending := c.writeQ.len() > 0 || (c.wb != nil && c.wb.len() > 0)
		if c.writeMode {
			return c.now
		}
		if !pending {
			// Leave a Hetero-DMR channel back at the fast point.
			if c.cfg.Replication.Fast() && !c.fastMode {
				c.transitionToFast()
			}
			return c.now
		}
		// Force a final drain for leftover writes.
		if c.cfg.Replication.Fast() && c.fastMode {
			c.transitionToSlow()
		}
		c.enterWriteMode()
	}
}

// step issues one scheduling action (refresh, mode switch, or one request)
// and returns whether it made progress.
func (c *Channel) step() bool {
	if c.serviceRefresh() {
		return true
	}
	c.lazyClose()

	if c.writeMode {
		// Waiting reads preempt the drain once the write queue falls
		// below the low watermark — a cheap bus turnaround for every
		// design, because Hetero-DMR's slow phase already runs everything
		// at specification with the originals awake (the expensive
		// frequency switches bracket the whole phase, not each spurt).
		_, preempt := writeWatermarks(c.cfg.WriteQueueCap)
		readsPreempt := c.readQ.len() > 0 && c.writeQ.len() <= preempt
		if c.writeQ.len() == 0 || readsPreempt ||
			(!c.cfg.Replication.Fast() && c.batchLeft <= 0) {
			c.enterReadMode()
			return true
		}
		c.serveWrite()
		return true
	}

	// Hetero-DMR's slow phase ends — and the channel speeds back up —
	// once the §III-A1 batch has drained (or nothing is pending), which
	// amortizes the two frequency switches over WriteBatch writes.
	if c.cfg.Replication.Fast() && !c.fastMode {
		pending := c.writeQ.len() > 0 || (c.wb != nil && c.wb.len() > 0)
		if c.batchLeft <= 0 || !pending {
			c.transitionToFast()
			return true
		}
	}

	// Read mode. Switch to write mode when the write buffer is nearly
	// full — or, when the channel is already at specification, whenever
	// there is nothing better to do. A fast-mode Hetero-DMR channel first
	// pays the frequency switch down to spec (transitionToSlow).
	pressure, _ := writeWatermarks(c.cfg.WriteQueueCap)
	writePressure := c.writeQ.len() >= pressure
	atSpec := !c.cfg.Replication.Fast() || !c.fastMode
	idleDrain := atSpec && c.readQ.len() == 0 && c.writeQ.len() >= c.cfg.WriteQueueCap/4
	if writePressure || idleDrain {
		if c.cfg.Replication.Fast() && c.fastMode {
			c.transitionToSlow()
		}
		c.enterWriteMode()
		return true
	}
	if c.readQ.len() == 0 {
		return false
	}
	c.serveRead()
	return true
}

// serviceRefresh issues one due auto-refresh, if any. The refreshAt index
// makes the nothing-due case — almost every step — a single comparison;
// when a deadline has passed, the rank scan below is guaranteed to find
// a due rank (refreshAt is the exact minimum over awake ranks).
func (c *Channel) serviceRefresh() bool {
	if c.now < c.refreshAt {
		return false
	}
	for ri, r := range c.ranks {
		if r.InSelfRefresh() || !r.RefreshDue(c.now) {
			continue
		}
		// The channel clock stays: other ranks may still work.
		r.Refresh(r.PrechargeAll(c.now))
		c.rankRowsChanged(ri)
		c.recomputeRefreshAt()
		return true
	}
	c.recomputeRefreshAt()
	return false
}

// lazyClose implements the hybrid page policy: rows idle beyond the
// timeout are precharged in the background. It visits only the banks
// whose deadline actually fired, in expiry-heap order; an entry
// superseded by a later use is re-armed in place at the live deadline,
// and one made stale by an intervening precharge or a self-refresh park
// is discarded. Precharges on distinct banks commute and each issues at
// its bank's EarliestPrecharge instant, so the visiting order cannot
// change the resulting state.
func (c *Channel) lazyClose() {
	if c.cfg.PageTimeout <= 0 {
		return
	}
	for len(c.closeHeap) > 0 && c.closeHeap[0].at <= c.now {
		gb := int(c.closeHeap[0].gb)
		ri, b := c.splitBank(gb)
		r := c.ranks[ri]
		// A parked rank's rows were precharged on entry; a closed row was
		// closed since this entry was scheduled. Either way it is stale.
		live := !r.InSelfRefresh() && r.Bank(b).OpenRow() != dram.RowClosed
		if d := c.lastUse[gb] + c.cfg.PageTimeout; live && d > c.now {
			// Superseded by a newer use: re-arm at the live deadline.
			c.closeHeap[0].at = d
			c.closeAt[gb] = d
			c.siftDown(0)
			continue
		}
		e := c.popClose()
		c.closeAt[gb] = 0
		if !live {
			continue
		}
		at := r.EarliestPrecharge(b, c.now)
		if at > c.now {
			// Due but not yet legal (tRAS/tRTP/tWR): keep it pending.
			c.closeDefer = append(c.closeDefer, e)
			continue
		}
		r.Precharge(b, at)
		c.bankRowChanged(ri, b)
	}
	for _, e := range c.closeDefer {
		c.schedCloseAt(int(e.gb), e.at)
	}
	c.closeDefer = c.closeDefer[:0]
}

// pickRead chooses the next read per FR-FCFS with bank fairness and
// returns it with the chosen serving rank, or (nil, -1) when nothing has
// arrived yet. The row-hit pass consults the per-bank chains (skipped
// outright when no queued request matches an open row); the oldest-first
// pass needs only the queue head, because arrivals are non-decreasing.
func (c *Channel) pickRead() (req *Request, serveRank int) {
	if c.rHits.total > 0 {
		if req, serveRank = c.pickReadChained(); req != nil {
			return req, serveRank
		}
		// Every counted hit is still in flight (not yet arrived) or
		// streak-capped: fall through to the oldest-first pass.
	}
	req = c.readQ.head
	if req.Arrive > c.now {
		return nil, -1 // nothing has arrived yet
	}
	bestRank := -1
	var best int64
	for _, cand := range c.readCandidateRanks(req.rank) {
		r := c.ranks[cand]
		if r.InSelfRefresh() {
			continue
		}
		proj := r.ProjectRead(req.bank, req.row, c.now)
		if bestRank < 0 || proj < best {
			best, bestRank = proj, cand
		}
	}
	if bestRank < 0 {
		panic("memctrl: no serviceable rank for read (all in self-refresh?)")
	}
	return req, bestRank
}

// streak returns the live row-hit streak of a global bank.
func (c *Channel) streak(gb int) int {
	if gb == c.streakBank {
		return c.streakLen
	}
	return 0
}

// openRowFor brings rank ri's bank to the requested row, issuing PRE/ACT
// as needed, and classifies the access. It returns the earliest column
// time. Row changes recount the bank's row-hit counters.
func (c *Channel) openRowFor(ri, bank int, row int64) (colReady int64, kind rowOutcome) {
	rank := c.ranks[ri]
	switch open := rank.Bank(bank).OpenRow(); {
	case open == row:
		return rank.EarliestColumn(bank, c.now), rowHit
	case open == dram.RowClosed:
		at := rank.EarliestActivate(bank, c.now)
		rank.Activate(bank, row, at)
		c.bankRowChanged(ri, bank)
		return rank.EarliestColumn(bank, at), rowMiss
	default:
		pre := rank.EarliestPrecharge(bank, c.now)
		rank.Precharge(bank, pre)
		at := rank.EarliestActivate(bank, pre)
		rank.Activate(bank, row, at)
		c.bankRowChanged(ri, bank)
		return rank.EarliestColumn(bank, at), rowConflict
	}
}

type rowOutcome int

const (
	rowHit rowOutcome = iota
	rowMiss
	rowConflict
)

func (c *Channel) countOutcome(k rowOutcome) {
	switch k {
	case rowHit:
		c.stats.RowHits++
	case rowMiss:
		c.stats.RowMisses++
	case rowConflict:
		c.stats.RowConflicts++
	}
}

// serveRead services the next read per pickRead end to end — timing,
// stats, streak, ECC, retire. The request may be recycled by the time
// this returns.
func (c *Channel) serveRead() {
	req, serveRank := c.pickRead()
	if req == nil {
		// Nothing has arrived yet; jump the clock to the next event —
		// the oldest pending arrival (the queue head; see nextEventTime).
		c.now = c.nextEventTime()
		return
	}
	c.readQHist.Observe(int64(c.readQ.len()))
	rank := c.ranks[serveRank]
	colReady, outcome := c.openRowFor(serveRank, req.bank, req.row)
	c.countOutcome(outcome)

	// The data bus must be free when the burst starts (colAt + tCL).
	colAt := colReady
	if earliest := c.busFreeAt - rank.Timing().TCL; colAt < earliest {
		colAt = earliest
	}
	end := rank.Read(req.bank, colAt)
	c.busFreeAt = end
	c.stats.BusBusyPS += rank.BurstPS()
	c.stats.Reads++

	gb := c.globalBank(serveRank, req.bank)
	c.lastUse[gb] = colAt
	if c.cfg.PageTimeout > 0 {
		c.schedCloseAt(gb, colAt+c.cfg.PageTimeout)
	}
	if outcome == rowHit && gb == c.streakBank {
		c.streakLen++
	} else {
		c.streakBank, c.streakLen = gb, 1
	}

	done := end + ControllerOverhead
	if c.cfg.Replication.Fast() && c.fastMode {
		c.consv.FastReads++
	}
	// Detection-only ECC on unsafely fast copy reads: a detected error
	// triggers the §III-C correction flow from the original block.
	if c.cfg.Replication.Fast() && c.fastMode && c.cfg.CopyErrorRate > 0 && c.rng.Bool(c.cfg.CopyErrorRate) {
		c.stats.DetectedErrors++
		c.stats.Corrections++
		c.stats.FreqSwitches += 2
		c.rec.Emit(c.now, "ecc", "correction")
		penalty := c.correctionPenalty()
		done += penalty
		c.busFreeAt = done
		if done > c.now {
			c.now = done
		}
	}
	req.Done = done
	c.stats.ReadLatencySumPS += done - req.Arrive
	c.stats.ReadCount++
	c.advance(colAt)
	c.chainRemoveRead(req)
	c.readQ.remove(req)
	if req.released {
		c.recycle(req)
	}
}

// advance moves the controller clock toward the just-issued column time
// while keeping an overlap window open: commands for OTHER banks may still
// issue up to a row-cycle behind the bus, which is what lets bank-level
// parallelism hide PRE/ACT latency under data bursts. Without the window
// the scheduler would serialize row cycles and cap bus utilization far
// below a real FR-FCFS controller's.
func (c *Channel) advance(colAt int64) {
	// A few row cycles of lookahead: a 256-entry FR-FCFS queue keeps many
	// banks in flight, so the clock trails the bus by several row cycles.
	const window = 256 * dramspec.Nanosecond
	if target := colAt - window; target > c.now {
		c.now = target
	}
}

// serveWrite services one write, broadcasting to the original block and
// its copies in a single bus transaction (§III-A / FMR §4.3). Writes are
// posted, so the scheduler reorders them freely (see pickWrite).
func (c *Channel) serveWrite() {
	req := c.pickWrite()
	c.writeQHist.Observe(int64(c.writeQ.len()))
	// Bring the target row up in every replica; the broadcast column
	// command issues when all of them are ready.
	targets := c.replicas[req.rank]
	colAt := c.now
	for _, t := range targets {
		ready, outcome := c.openRowFor(t, req.bank, req.row)
		if t == req.rank {
			c.countOutcome(outcome)
		}
		if ready > colAt {
			colAt = ready
		}
	}
	if c.busFreeAt > colAt {
		colAt = c.busFreeAt
	}
	var end int64
	for _, t := range targets {
		e := c.ranks[t].Write(req.bank, colAt)
		if e > end {
			end = e
		}
		tgb := c.globalBank(t, req.bank)
		c.lastUse[tgb] = colAt
		if c.cfg.PageTimeout > 0 {
			c.schedCloseAt(tgb, colAt+c.cfg.PageTimeout)
		}
	}
	c.busFreeAt = end
	c.stats.BusBusyPS += c.ranks[targets[0]].BurstPS()
	c.stats.Writes++
	c.consv.ExtraRankWrites += uint64(len(targets) - 1)
	if len(targets) > 1 {
		c.stats.BroadcastWrites++
	}
	req.Done = end + ControllerOverhead
	c.advance(colAt)
	c.chainRemoveWrite(req)
	c.writeQ.remove(req)
	c.wqBlocks.Dec(req.Addr / uint64(c.cfg.BlockBytes))
	// Writes are posted — no caller ever holds the handle — so the
	// request recycles as soon as it retires.
	c.recycle(req)
	c.batchLeft--
}

// enterWriteMode starts a write-drain spurt: a cheap bus turnaround for
// every design (a Hetero-DMR channel is already at specification in its
// slow phase — see transitionToSlow). In every design the spurt is
// topped up from the writeback cache and then, when a CleanSource is
// attached and batch budget remains, by proactive LLC cleaning (§III-E).
func (c *Channel) enterWriteMode() {
	if c.writeMode {
		panic("memctrl: already in write mode")
	}
	if c.cfg.Replication.Fast() && c.fastMode {
		panic("memctrl: write mode while unsafely fast (transitionToSlow first)")
	}
	c.stats.ModeSwitches++
	c.consv.EnterWrite++
	c.rec.Emit(c.now, "mode", "enter-write")
	c.busFreeAt = maxI64(c.busFreeAt, c.now) + c.cfg.Spec.Timing.TRTW
	c.writeMode = true
	c.writeModeStart = maxI64(c.now, 0)
	if !c.cfg.Replication.Fast() {
		// Conventional designs account the batch per spurt; Hetero-DMR's
		// batch spans the whole slow phase (set by transitionToSlow).
		c.batchLeft = c.cfg.WriteBatch
	}
	// Top up: drain the writeback cache, then clean LLC blocks up to the
	// remaining batch budget.
	if c.wb != nil {
		drained := c.wb.drain()
		c.consv.WBDrained += uint64(len(drained))
		for _, block := range drained {
			c.pushWrite(c.newRequest(block*uint64(c.cfg.BlockBytes), c.now))
		}
	}
	budget := c.batchLeft - c.writeQ.len()
	if c.cfg.CleanSource != nil && budget > 0 {
		cleaned := c.cfg.CleanSource.CleanDirty(budget)
		for _, addr := range cleaned {
			c.pushWrite(c.newRequest(addr, c.now))
		}
		c.stats.CleanedBlocks += uint64(len(cleaned))
	}
}

// enterReadMode ends a write-drain spurt (cheap turnaround; the expensive
// Hetero-DMR transition back to the fast operating point happens in
// transitionToFast once the whole batch has drained).
func (c *Channel) enterReadMode() {
	if !c.writeMode {
		panic("memctrl: already in read mode")
	}
	c.stats.ModeSwitches++
	c.consv.EnterRead++
	c.rec.Emit(c.now, "mode", "enter-read")
	c.writeMode = false
	c.stats.WriteModePS += maxI64(c.now, c.busFreeAt) - c.writeModeStart
	c.busFreeAt = maxI64(c.busFreeAt, c.now) + c.cfg.Spec.Timing.TRTW
}

// transitionToSlow begins Hetero-DMR's slow phase (Fig 9): wake the
// originals from self-refresh, switch the copy module(s) down to
// specification, and arm the §III-A1 write batch that amortizes the two
// frequency switches.
func (c *Channel) transitionToSlow() {
	if !c.fastMode {
		panic("memctrl: transitionToSlow while already slow")
	}
	// Anchor the transition on the bus going idle, not the (possibly
	// lagging) scheduler clock.
	start := maxI64(c.now, c.busFreeAt)
	c.stats.FastPS += start - c.lastFastStart
	c.stats.FreqSwitches++
	c.consv.ToSlow++
	c.rec.Emit(start, "freq", "to-slow")
	ready := start
	for _, r := range c.origRanks {
		if end := r.ExitSelfRefresh(start); end > ready {
			ready = end
		}
	}
	if end := dram.FrequencySwitch(c.copyRanks, start, c.cfg.Spec.Timing, c.cfg.Spec.Rate.ClockPS(), c.cfg.FreqSwitchPS); end > ready {
		ready = end
	}
	c.now = ready
	c.busFreeAt = ready
	c.fastMode = false
	c.batchLeft = c.cfg.WriteBatch
	// The candidate sets, refresh deadlines, and operating points all
	// changed; rebuild the scheduling indexes.
	c.recountAllRows()
	c.reindexTiming()
}

// transitionToFast ends the slow phase (Fig 10): park the originals in
// self-refresh and switch the copy module(s) up to the unsafely fast
// operating point.
func (c *Channel) transitionToFast() {
	if c.fastMode {
		panic("memctrl: transitionToFast while already fast")
	}
	if c.writeMode {
		panic("memctrl: transitionToFast during a write spurt")
	}
	c.stats.FreqSwitches++
	c.consv.ToFast++
	start := maxI64(c.now, c.busFreeAt)
	c.rec.Emit(start, "freq", "to-fast")
	ready := start
	for _, r := range c.origRanks {
		quiesced := r.PrechargeAll(start)
		r.EnterSelfRefresh(quiesced)
		if quiesced > ready {
			ready = quiesced
		}
	}
	if end := dram.FrequencySwitch(c.copyRanks, start, c.cfg.Fast.Timing, c.cfg.Fast.Rate.ClockPS(), c.cfg.FreqSwitchPS); end > ready {
		ready = end
	}
	c.now = ready
	c.busFreeAt = ready
	c.fastMode = true
	c.lastFastStart = ready
	// The candidate sets, refresh deadlines, and operating points all
	// changed; rebuild the scheduling indexes.
	c.recountAllRows()
	c.reindexTiming()
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Rank exposes rank i's model for tests and energy accounting.
func (c *Channel) Rank(i int) *dram.Rank {
	if i < 0 || i >= len(c.ranks) {
		panic(fmt.Sprintf("memctrl: rank %d out of range", i))
	}
	return c.ranks[i]
}

// QueueDepths returns the current read/write queue occupancy.
func (c *Channel) QueueDepths() (reads, writes, parked int) {
	p := 0
	if c.wb != nil {
		p = c.wb.len()
	}
	return c.readQ.len(), c.writeQ.len(), p
}
