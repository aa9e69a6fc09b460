package memctrl

// Event-driven scheduling indexes.
//
// The controller never polls for its next actionable moment: every step
// would otherwise rescan all ranks for due refreshes, walk every bank of
// every rank for page timeouts, and walk the read queue for the earliest
// arrival. The indexes here make each of those checks O(1) (amortized)
// in the nothing-to-do case, without changing a scheduling decision:
//
//   - refreshAt caches the minimum auto-refresh deadline over awake
//     ranks; serviceRefresh returns immediately while now < refreshAt and
//     otherwise scans the ranks, which is then guaranteed to find a due
//     one.
//   - closeHeap is a lazy-deletion min-heap of (deadline, bank) page-
//     timeout expiries, pushed whenever a column command refreshes a
//     bank's lastUse; lazyClose handles only the entries whose deadline
//     has passed. An entry superseded by a newer use is re-armed in
//     place at the live deadline; stale ones (row since closed, rank
//     parked) are discarded. Per-bank precharges commute, so the order
//     in which due entries are handled cannot change the resulting state.
//   - nextEventTime is the idle-clock jump target. In the pinned
//     scheduling semantics the clock only ever jumps to the oldest
//     pending arrival (refresh/timeout/timing expiries are evaluated
//     lazily at that instant), and because SubmitRead arrivals are
//     non-decreasing the oldest pending arrival is simply the read
//     queue's head — no walk.
//
// The per-bank request chains and row-hit counters the FR-FCFS picks
// use live in chains.go. testdata/schedule.golden (channel level) and
// the node package's results.golden pin the schedule these indexes
// produce.

// closeEvent is one page-timeout expiry: bank gb's open row becomes
// eligible for a background precharge at instant `at`.
type closeEvent struct {
	at int64
	gb int32
}

// initSchedIndexes sizes the per-bank chains, counters, and inverse rank
// map. Called once from NewChannel before any command is issued.
func (c *Channel) initSchedIndexes() {
	nb := c.cfg.Ranks * c.cfg.BanksPerRank
	c.readChains = make([]reqChain, nb)
	c.writeChains = make([]reqChain, nb)
	// Invert the layout: each decoded rank's original and copies serve
	// its chain, and a rank that no address folds to or is copied onto
	// serves none.
	c.chainRank = make([]int, c.cfg.Ranks)
	for ri := range c.chainRank {
		c.chainRank[ri] = -1
	}
	for r := range c.chainRank {
		orig := c.foldRank(r)
		for _, ri := range c.replicas[orig] {
			c.chainRank[ri] = orig
		}
	}
	if c.cfg.PageTimeout > 0 {
		c.closeHeap = make([]closeEvent, 0, nb)
		c.closeDefer = make([]closeEvent, 0, c.cfg.BanksPerRank)
		c.closeAt = make([]int64, nb)
	}
	c.rHits = newBankHits(nb)
	c.wHits = newBankHits(nb)
	c.wHeads = make([]*Request, 0, nb)
}

// reindexTiming refreshes the cached cross-rank timing aggregates after
// anything that changes a rank's operating point or refresh schedule:
// construction, auto-refresh issue, and the self-refresh / frequency
// transitions bracketing Hetero-DMR's phases.
func (c *Channel) reindexTiming() {
	c.recomputeRefreshAt()
	min := int64(0)
	for i, r := range c.ranks {
		if t := r.Timing().TRCD; i == 0 || t < min {
			min = t
		}
	}
	c.minTRCD = min
}

// recomputeRefreshAt re-derives the earliest refresh deadline over awake
// ranks. Awake deadlines only move later (Refresh pushes them forward,
// self-refreshing ranks refresh themselves and re-arm on exit), so
// recomputing at each of those events keeps refreshAt exact.
func (c *Channel) recomputeRefreshAt() {
	const never = int64(1) << 62
	at := never
	for _, r := range c.ranks {
		if r.InSelfRefresh() {
			continue
		}
		if d := r.NextRefresh(); d < at {
			at = d
		}
	}
	c.refreshAt = at
}

// schedCloseAt records that bank gb's page timeout now expires at `at`
// (its lastUse just advanced). At most one entry per bank lives in the
// heap: if one is already enqueued — necessarily at an earlier-or-equal
// deadline, since lastUse only advances — lazyClose reconciles it against
// the live deadline when it comes due, so a second push would be
// redundant.
func (c *Channel) schedCloseAt(gb int, at int64) {
	if c.closeAt[gb] != 0 {
		return
	}
	c.closeAt[gb] = at
	c.closeHeap = append(c.closeHeap, closeEvent{at: at, gb: int32(gb)})
	c.siftUp(len(c.closeHeap) - 1)
}

func (c *Channel) siftUp(i int) {
	h := c.closeHeap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (c *Channel) popClose() closeEvent {
	h := c.closeHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	c.closeHeap = h[:n]
	c.siftDown(0)
	return top
}

func (c *Channel) siftDown(i int) {
	h := c.closeHeap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h[l].at < h[s].at {
			s = l
		}
		if r < n && h[r].at < h[s].at {
			s = r
		}
		if s == i {
			break
		}
		h[s], h[i] = h[i], h[s]
		i = s
	}
}

// nextEventTime returns the instant the idle scheduler clock should jump
// to: the oldest pending read arrival, i.e. the read queue's head
// (arrivals are non-decreasing, so push order is arrival order). The other
// event classes — refresh deadlines, page timeouts, bank timing expiries,
// mode boundaries — never advance the clock on their own in the pinned
// scheduling semantics; they are evaluated lazily once the clock lands
// here.
func (c *Channel) nextEventTime() int64 {
	return c.readQ.head.Arrive
}
