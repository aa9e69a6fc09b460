// Fixture for the poolsafe analyzer: pooled handles (structs with
// intrusive next/prev self-links) may not be used after Release, parked
// in state that outlives their run scope, or leaked out of the owning
// scheduler through a chain (next/prev) or queue (qnext/qprev) link.
package poolsafe

import "sync"

// Req is the pooled handle shape: a named struct with intrusive
// next/prev chain links and qnext/qprev queue links of its own type,
// exactly like memctrl.Request.
type Req struct {
	Addr  uint64
	Done  int64
	qnext *Req
	qprev *Req
	next  *Req
	prev  *Req
}

// Pool is a stand-in for the channel-owned freelist.
type Pool struct {
	free []*Req
}

func (p *Pool) Get() *Req {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return &Req{}
}

func (p *Pool) Release(r *Req) {
	p.free = append(p.free, r)
}

// --- use after release -------------------------------------------------

func badUseAfterRelease(p *Pool) uint64 {
	r := p.Get()
	p.Release(r)
	return r.Addr // want `use of r after Release`
}

func badDoubleRelease(p *Pool) {
	r := p.Get()
	p.Release(r)
	p.Release(r) // want `use of r after Release`
}

func goodReleaseLast(p *Pool) uint64 {
	r := p.Get()
	addr := r.Addr
	p.Release(r)
	return addr
}

// goodReassign restarts the handle from the pool, which revives it.
func goodReassign(p *Pool) uint64 {
	r := p.Get()
	p.Release(r)
	r = p.Get()
	return r.Addr
}

// goodBranchRelease releases only on the early-return path; the
// fall-through use is live.
func goodBranchRelease(p *Pool, done bool) uint64 {
	r := p.Get()
	if done {
		p.Release(r)
		return 0
	}
	return r.Addr
}

// --- pool-scope escapes ------------------------------------------------

var leakedReq *Req // want `package-level variable leakedReq holds pooled request handles`

var leakedRing []*Req // want `package-level variable leakedRing holds pooled request handles`

// okCounter is plain state, not a handle.
var okCounter int64

// allowedSentinel shows the suppression escape hatch for a deliberate
// package-level handle.
//
//lint:allow poolsafe nil sentinel terminator, never a live pooled handle
var allowedSentinel *Req

// scratch is recycled through a sync.Pool, so any pooled handle parked
// in it survives across runs.
type scratch struct {
	ids  []uint64
	held *Req // want `sync.Pool scratch type scratch holds pooled request handles`
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

func useScratch() *scratch {
	return scratchPool.Get().(*scratch)
}

// --- chain escapes -----------------------------------------------------

var chainHead *Req // want `package-level variable chainHead holds pooled request handles`

func badChainReturn(r *Req) *Req {
	return r.next // want `intrusive chain node returned from badChainReturn`
}

func badChainStore(r *Req) {
	chainHead = r.prev // want `intrusive chain node stored into package-level variable chainHead`
}

func badQueueReturn(r *Req) *Req {
	return r.qnext // want `intrusive chain node returned from badQueueReturn`
}

func badQueueStore(r *Req) {
	chainHead = r.qprev // want `intrusive chain node stored into package-level variable chainHead`
}

// window is scheduler-owned state, like a channel's write-window edge.
type window struct {
	edge *Req
}

// advance moves the edge one queue link on, as a channel does when a
// write at or before its edge retires: a link read stored into state
// reached through a local stays legal.
func (w *window) advance() {
	w.edge = w.edge.qnext
}

// push is the sanctioned in-scheduler chain manipulation: link writes
// and traversal through locals stay inside the owning package.
func push(head **Req, r *Req) {
	r.next = *head
	r.prev = nil
	if *head != nil {
		(*head).prev = r
	}
	*head = r
}

func countChain(r *Req) int {
	n := 0
	for cur := r; cur != nil; cur = cur.next {
		n++
	}
	return n
}
