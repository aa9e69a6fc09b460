package memctrl

import "repro/internal/dram"

// Per-bank pending-request chains and row-hit counters.
//
// Every queued request is threaded onto a doubly-linked chain for its
// decoded (rank, bank), using the intrusive next/prev links in the pooled
// Request nodes — no per-operation allocation. Chain order is queue push
// order, which is also ring-position order, so walking a chain visits one
// bank's requests oldest-first without touching the ring.
//
// On top of the chains the channel maintains, per *serving* bank, the
// number of queued requests whose row matches that bank's currently open
// row (rHits for reads, wHits for writes, each with its total and its
// list of banks where the count is non-zero). A serving bank is (rank r,
// bank b) where r may be the decoded original rank or a copy rank holding
// a replica; chainRank maps a serving rank back to the decoded rank whose
// chain it serves. The counters let the FR-FCFS row-hit passes visit only
// the banks that can produce a hit — none at all once the open pages age
// out — while remaining exact: the oldest hit is the minimum ring
// position over those banks' oldest matching chain entries.
//
// The counters count row matches regardless of arrival time or streak
// caps (those are re-checked by the gated selection), and they stay
// correct across all replication modes because a rank that is not
// currently a read candidate never has open rows: originals are
// precharged before parking in self-refresh, and unused ranks never
// receive commands.

// reqChain is one bank's FIFO of queued requests.
type reqChain struct {
	head, tail *Request
}

func (ch *reqChain) push(r *Request) {
	r.prev = ch.tail
	r.next = nil
	if ch.tail != nil {
		ch.tail.next = r
	} else {
		ch.head = r
	}
	ch.tail = r
}

func (ch *reqChain) remove(r *Request) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		ch.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		ch.tail = r.prev
	}
	r.next, r.prev = nil, nil
}

// ranksServing returns the ranks that can serve requests of decoded rank
// origRank: the original plus every copy. The slice aliases per-channel
// scratch (servBuf) valid until the next call.
func (c *Channel) ranksServing(origRank int) []int {
	return c.appendCopyRanks(append(c.servBuf[:0], origRank), origRank)
}

// bankHits is one queue's row-hit index: per serving bank, the number
// of queued requests whose row matches the bank's open row; their total;
// and the dense list of banks with a non-zero count (pos holds each
// bank's index in it, -1 when absent), which the chained row-hit passes
// iterate.
type bankHits struct {
	n     []int32
	total int
	hot   []int32
	pos   []int32
}

func newBankHits(nb int) bankHits {
	h := bankHits{n: make([]int32, nb), hot: make([]int32, 0, nb), pos: make([]int32, nb)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// set updates bank gb's count, the total and the hot list. Membership
// changes only on 0↔nonzero transitions; swap-with-last removal keeps
// both updates O(1). List order is irrelevant to scheduling: the passes
// take a global minimum over ring positions, not the first hit they see.
func (h *bankHits) set(gb int, n int32) {
	old := h.n[gb]
	if n == old {
		return
	}
	h.total += int(n - old)
	h.n[gb] = n
	if old == 0 {
		h.pos[gb] = int32(len(h.hot))
		h.hot = append(h.hot, int32(gb))
	} else if n == 0 {
		i := h.pos[gb]
		last := len(h.hot) - 1
		moved := h.hot[last]
		h.hot[i] = moved
		h.pos[moved] = i
		h.hot = h.hot[:last]
		h.pos[gb] = -1
	}
}

// chainPushRead threads a newly queued read and updates the row-hit
// counters of every bank that could serve it.
func (c *Channel) chainPushRead(req *Request) {
	c.readChains[c.globalBank(req.rank, req.bank)].push(req)
	for _, ri := range c.ranksServing(req.rank) {
		if c.ranks[ri].Bank(req.bank).OpenRow() == req.row {
			gb := c.globalBank(ri, req.bank)
			c.rHits.set(gb, c.rHits.n[gb]+1)
		}
	}
}

// chainRemoveRead unthreads a retiring read, updating the counters
// against the banks' current open rows (any row changes during service
// already recounted with the request still chained).
func (c *Channel) chainRemoveRead(req *Request) {
	c.readChains[c.globalBank(req.rank, req.bank)].remove(req)
	for _, ri := range c.ranksServing(req.rank) {
		if c.ranks[ri].Bank(req.bank).OpenRow() == req.row {
			gb := c.globalBank(ri, req.bank)
			c.rHits.set(gb, c.rHits.n[gb]-1)
		}
	}
}

// writeScanCap bounds the write projection pass to the oldest live
// writes; the cap is part of the scheduling policy, so it defines output.
const writeScanCap = 64

// chainPushWrite threads a newly queued write, which writeQ.push has
// just placed at the ring tail. Write row hits are only checked against
// the decoded rank (broadcast targets follow the original), so the
// counter update is a single bank probe. A write that starts its chain
// has the largest position of any head, so wHeads stays sorted by
// appending it.
func (c *Channel) chainPushWrite(req *Request) {
	gb := c.globalBank(req.rank, req.bank)
	if c.writeChains[gb].head == nil {
		c.wHeads = append(c.wHeads, req)
	}
	c.writeChains[gb].push(req)
	if c.writeQ.len() == writeScanCap {
		c.wEdge = req
	}
	if c.ranks[req.rank].Bank(req.bank).OpenRow() == req.row {
		c.wHits.set(gb, c.wHits.n[gb]+1)
	}
}

// chainRemoveWrite unthreads a retiring write while it is still in the
// ring. Retiring a chain head hands the bank's slot in wHeads to its next
// write, which sits later in the ring, so the slot moves toward the tail
// past the heads it now follows; a write at or before wEdge moves the
// window edge to the next live write.
func (c *Channel) chainRemoveWrite(req *Request) {
	gb := c.globalBank(req.rank, req.bank)
	ch := &c.writeChains[gb]
	if ch.head == req {
		h := c.wHeads
		i := headIndex(h, req.pos)
		if next := req.next; next != nil {
			for ; i+1 < len(h) && h[i+1].pos < next.pos; i++ {
				h[i] = h[i+1]
			}
			h[i] = next
		} else {
			copy(h[i:], h[i+1:])
			h[len(h)-1] = nil
			c.wHeads = h[:len(h)-1]
		}
	}
	ch.remove(req)
	if c.wEdge != nil {
		switch {
		case c.writeQ.len() == writeScanCap:
			c.wEdge = nil // the window now holds every queued write
		case req.pos <= c.wEdge.pos:
			i := c.wEdge.pos + 1
			for c.writeQ.at(i) == nil {
				i++
			}
			c.wEdge = c.writeQ.at(i)
		}
	}
	if c.ranks[req.rank].Bank(req.bank).OpenRow() == req.row {
		c.wHits.set(gb, c.wHits.n[gb]-1)
	}
}

// headIndex returns the index of the head at ring position pos in the
// position-sorted list h, which must hold it.
func headIndex(h []*Request, pos int) int {
	lo, hi := 0, len(h)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h[mid].pos < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bankRowChanged recounts the row-hit counters of serving bank (ri, b)
// after its open row changed (ACT, PRE, or PRE+ACT). The recount walks
// the bank's chains — short, since queue occupancy spreads across all
// banks — and evaluates the same predicate the incremental updates use.
func (c *Channel) bankRowChanged(ri, b int) {
	gb := c.globalBank(ri, b)
	open := c.ranks[ri].Bank(b).OpenRow()

	if cri := c.chainRank[ri]; cri >= 0 {
		n := int32(0)
		if open != dram.RowClosed {
			for r := c.readChains[c.globalBank(cri, b)].head; r != nil; r = r.next {
				if r.row == open {
					n++
				}
			}
		}
		c.rHits.set(gb, n)
	}

	// Write chains are keyed and checked on decoded ranks only; for copy
	// ranks the chain is empty and this is a no-op.
	n := int32(0)
	if open != dram.RowClosed {
		for r := c.writeChains[gb].head; r != nil; r = r.next {
			if r.row == open {
				n++
			}
		}
	}
	c.wHits.set(gb, n)
}

// rankRowsChanged recounts every bank of serving rank ri (after a
// PrechargeAll or a self-refresh transition).
func (c *Channel) rankRowsChanged(ri int) {
	for b := 0; b < c.cfg.BanksPerRank; b++ {
		c.bankRowChanged(ri, b)
	}
}

// recountAllRows rebuilds every row-hit counter from the chains; used
// after mode transitions, which change several ranks and the candidate
// sets at once. Transitions are rare (two per Hetero-DMR batch), so the
// full sweep is cheap relative to what it guards.
func (c *Channel) recountAllRows() {
	for ri := range c.ranks {
		c.rankRowsChanged(ri)
	}
}

// pickReadChained is pickRead's row-hit pass: the oldest arrived row
// hit, found through the per-bank chains instead of a ring scan. Only
// called when rHits.total > 0. It returns the ring position and serving
// rank, or (-1, -1) when every counted hit is still in flight toward the
// controller (not yet arrived) or streak-capped — the caller then falls
// through to the oldest-first pass.
func (c *Channel) pickReadChained() (pos, serveRank int) {
	var best *Request
	for _, g := range c.rHits.hot {
		gb := int(g)
		if gb == c.streakBank && c.streakLen >= hitStreakCap {
			continue // bank fairness: streak exhausted for this bank
		}
		ri, b := c.splitBank(gb)
		open := c.ranks[ri].Bank(b).OpenRow()
		// A bank only enters the hot list through a counted hit, which
		// requires a serving rank, so chainRank[ri] >= 0 here.
		for r := c.readChains[c.globalBank(c.chainRank[ri], b)].head; r != nil; r = r.next {
			if r.Arrive > c.now {
				break // chain is oldest-first; the rest arrived later
			}
			if r.row == open {
				if best == nil || r.pos < best.pos {
					best = r
				}
				break // oldest hit in this bank; later ones can't win
			}
		}
	}
	if best == nil {
		return -1, -1
	}
	if cand := c.resolveHitRank(best); cand >= 0 {
		return best.pos, cand
	}
	// Unreachable: best came from a serving bank with an open-row match
	// and a live streak budget, and such a bank is always in the request's
	// candidate list (a rank outside it never has open rows). Diverging
	// silently into the second pass would change the schedule, so fail
	// loudly instead.
	panic("memctrl: chained row hit lost during candidate re-resolution")
}

// resolveHitRank re-resolves which rank serves a chained row hit, in
// candidate order, so ties between an original and its copy break the
// same way every time: the first candidate in readCandidateRanks order
// with an open-row match and streak budget. Returns -1 when no
// candidate qualifies.
func (c *Channel) resolveHitRank(req *Request) int {
	for _, cand := range c.readCandidateRanks(req.rank) {
		r := c.ranks[cand]
		if r.InSelfRefresh() {
			continue
		}
		if r.Bank(req.bank).OpenRow() == req.row && c.streak(c.globalBank(cand, req.bank)) < hitStreakCap {
			return cand
		}
	}
	return -1
}

// pickWrite chooses the next write: the oldest row hit if any queued
// write matches its bank's open row, otherwise — among the writeScanCap
// oldest live writes — the first whose bank can accept a column soonest,
// which interleaves activates across banks instead of serializing row
// cycles on one bank (tFAW relief).
//
// Both passes work per bank. The row-hit pass takes the minimum ring
// position over the hit banks' oldest matching chain entries. In the
// projection pass no queued write is a row hit, so a write's projection
// depends only on its bank, and the first minimum over the window is
// the minimum of (projection, ring position) over the banks whose chain
// head lies in the window: each bank is projected once, at its head,
// visiting banks in head order. Every projection is at least now +
// minTRCD, so once the incumbent reaches that floor no later bank can
// beat it (projections only tie) and the pass stops.
func (c *Channel) pickWrite() *Request {
	if c.wHits.total > 0 {
		var best *Request
		for _, g := range c.wHits.hot {
			gb := int(g)
			ri, b := c.splitBank(gb)
			open := c.ranks[ri].Bank(b).OpenRow()
			for r := c.writeChains[gb].head; r != nil; r = r.next {
				if r.row == open {
					if best == nil || r.pos < best.pos {
						best = r
					}
					break
				}
			}
		}
		return best
	}
	limit := int(^uint(0) >> 1)
	if c.wEdge != nil {
		limit = c.wEdge.pos
	}
	floor := c.now + c.minTRCD
	var best *Request
	var bestProj int64
	for _, h := range c.wHeads {
		if h.pos > limit {
			break
		}
		proj := c.ranks[h.rank].ProjectRead(h.bank, h.row, c.now)
		if best == nil || proj < bestProj {
			best, bestProj = h, proj
		}
		if bestProj <= floor {
			break
		}
	}
	return best
}
