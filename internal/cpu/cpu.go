// Package cpu models the simulated out-of-order core of Table IV (3.1GHz,
// 4-wide, 224-entry ROB) at the level of detail the evaluation needs: a
// dependency- and MLP-limited memory access window over the cache
// hierarchy. Non-memory instructions retire at the issue width;
// independent misses overlap up to the workload's memory-level
// parallelism; dependent (pointer-chasing) loads stall the core for their
// full latency; MPI communication time passes unscaled.
//
// This analytic-window core is the documented substitution for Gem5's
// cycle-accurate O3 core (DESIGN.md): node-level results in the paper are
// relative to a baseline with an identical core, so the quantity that
// matters is how execution time responds to memory latency and bandwidth,
// which the window model captures.
package cpu

import (
	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/workload"
)

// ClockPS is the 3.1GHz core clock period in picoseconds.
const ClockPS = 323

// IssueWidth is the core's sustained non-memory retire width.
const IssueWidth = 4

// CyclesToPS converts a core-cycle count to picoseconds. All cycle→time
// conversions in the core and node models route through this helper: the
// unitflow analyzer (internal/lint) treats *PS-named helpers as the only
// places a cycle-denominated quantity may meet a picosecond one.
func CyclesToPS(cycles int64) int64 { return cycles * ClockPS }

// Memory is the core's view of the memory system (routing across channels
// is the node's concern).
type Memory interface {
	// SubmitRead enqueues a demand or prefetch read and returns a handle.
	SubmitRead(addr uint64, at int64) *memctrl.Request
	// SubmitWrite enqueues a posted writeback.
	SubmitWrite(addr uint64, at int64)
	// WaitFor simulates until the request completes and returns the time.
	WaitFor(r *memctrl.Request) int64
	// Release hands a read handle back to its channel for recycling; the
	// handle must not be touched afterwards. Call it after WaitFor, or
	// immediately for fire-and-forget prefetches.
	Release(r *memctrl.Request)
}

// Stats aggregates a core's execution accounting.
type Stats struct {
	Instructions int64
	ComputePS    int64
	MemStallPS   int64
	CommPS       int64
	L1Misses     uint64
	L2Misses     uint64
	L3Misses     uint64
	DemandReads  uint64
	DemandWrites uint64
	Prefetches   uint64

	// Conservation tallies: memory reads this core submitted and memory
	// reads it completed (waited on). Prefetch reads are fire-and-forget,
	// so after Finish, IssuedMemReads == RetiredMemReads + Prefetches.
	IssuedMemReads  uint64
	RetiredMemReads uint64
}

// Core is the shared-state half of a simulated core: the LLC and memory
// side of its accesses, the MLP window and the clock. It replays the
// Records a Recorder produced for its private front end (Replay).
type Core struct {
	ID int

	l3  *cache.Cache // shared
	mem Memory

	l2LatencyPS int64
	l3LatencyPS int64

	// outstanding is the MLP window: the overlapped misses in issue
	// order, at most mlp of them, in storage sized once by New.
	mlp         int
	outstanding []*memctrl.Request

	t     int64 // core virtual time, ps
	stats Stats
}

// Config wires a core. Its private L1 and L2 live in the Recorder that
// records its front end; the core needs only the L2 hit latency.
type Config struct {
	ID          int
	L2LatencyPS int64
	L3          *cache.Cache
	Mem         Memory
	MLP         int
}

// New builds a core. It panics on missing pieces (construction-time
// programmer errors).
func New(cfg Config) *Core {
	if cfg.L3 == nil || cfg.Mem == nil {
		panic("cpu: incomplete core config")
	}
	if cfg.MLP <= 0 {
		panic("cpu: non-positive MLP")
	}
	if cfg.L2LatencyPS <= 0 {
		panic("cpu: non-positive L2 latency")
	}
	return &Core{
		ID:          cfg.ID,
		l3:          cfg.L3,
		mem:         cfg.Mem,
		l2LatencyPS: cfg.L2LatencyPS,
		l3LatencyPS: cfg.L3.Config().LatencyPS,
		mlp:         cfg.MLP,
		outstanding: make([]*memctrl.Request, 0, cfg.MLP),
	}
}

// Now returns the core's current virtual time.
func (c *Core) Now() int64 { return c.t }

// Stats returns the accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// Replay plays one recorded event: its shared-state ops in recorded
// order, then its timing. ops must be the ops recorded with rec.
func (c *Core) Replay(rec Record, ops []uint32) {
	switch workload.EventKind(rec.kind) {
	case workload.Compute:
		// Instructions retire IssueWidth per cycle; multiply before the
		// divide so partial issue groups round exactly as they always have.
		n := int64(rec.val)
		d := CyclesToPS(n) / IssueWidth
		c.t += d
		c.stats.ComputePS += d
		c.stats.Instructions += n
	case workload.Comm:
		d := int64(rec.val)
		c.t += d
		c.stats.CommPS += d
	case workload.Read:
		c.stats.DemandReads++
		c.access(rec, ops, false)
	case workload.Write:
		c.stats.DemandWrites++
		c.access(rec, ops, true)
	}
}

// access replays a demand load or store that missed L1.
func (c *Core) access(rec Record, ops []uint32, write bool) {
	level := rec.flags & levelMask
	if level == levelL1 {
		return // L1 hits are pipelined
	}
	c.stats.L1Misses++
	if level == levelLLC {
		c.stats.L2Misses++
	}
	var miss *memctrl.Request // the demand's memory read, if the LLC missed
	for _, op := range ops {
		addr := uint64(op>>opKindBits) * 64
		switch op & opKindMask {
		case opPrefetch:
			if !c.l3.Lookup(addr) {
				// Fire-and-forget: release the handle right away; the
				// channel recycles it once the read retires.
				c.mem.Release(c.mem.SubmitRead(addr, c.t))
				c.stats.IssuedMemReads++
				c.stats.Prefetches++
				c.fillL3(addr, false)
			}
		case opWriteback:
			if !c.l3.Access(addr, true) {
				c.fillL3(addr, true)
			}
		case opDemand:
			if !c.l3.Access(addr, write) {
				c.stats.L3Misses++
				// A store's fetch-for-write is posted and retires via the
				// store buffer, through the same MLP window as a load.
				miss = c.mem.SubmitRead(addr, c.t)
				c.stats.IssuedMemReads++
				c.fillL3(addr, write)
			}
		}
	}
	dependent := rec.flags&flagDependent != 0
	switch {
	case level == levelL2:
		if dependent {
			c.stall(c.l2LatencyPS)
		}
	case miss == nil: // LLC hit
		if write {
			return
		}
		if dependent {
			c.stall(c.l3LatencyPS)
		} else {
			// OoO hides most, but a shared-LLC round trip is not free.
			c.stall(c.l3LatencyPS / 8)
		}
	case dependent:
		c.retire(miss) // the stall covers the full remaining latency
	default:
		c.outstanding = append(c.outstanding, miss)
		if n := len(c.outstanding); n >= c.mlp {
			// Shift the window down in place so it never outgrows its
			// storage.
			oldest := c.outstanding[0]
			copy(c.outstanding, c.outstanding[1:])
			c.outstanding = c.outstanding[:n-1]
			c.retire(oldest)
		}
	}
}

// fillL3 inserts a block into the LLC; a dirty victim goes to DRAM.
func (c *Core) fillL3(addr uint64, write bool) {
	if victim, dirty := c.l3.Fill(addr, write, false); dirty {
		c.mem.SubmitWrite(victim, c.t)
	}
}

// retire waits for an outstanding read and charges any remaining latency.
func (c *Core) retire(r *memctrl.Request) {
	done := c.mem.WaitFor(r)
	c.mem.Release(r)
	c.stats.RetiredMemReads++
	if done > c.t {
		c.stats.MemStallPS += done - c.t
		c.t = done
	}
}

// Finish waits for all outstanding misses, modelling the pipeline drain at
// the end of the measured region.
func (c *Core) Finish() {
	for _, r := range c.outstanding {
		c.retire(r)
	}
	c.outstanding = c.outstanding[:0]
}

// stall charges a dependent-load stall.
func (c *Core) stall(d int64) {
	if d <= 0 {
		return
	}
	c.t += d
	c.stats.MemStallPS += d
}

// CheckConservation verifies the core's memory-access accounting. Call it
// after Finish: every issued memory read must have been retired, except
// prefetches (fire-and-forget by design), and the demand-miss chain must
// be monotone through the hierarchy.
func (c *Core) CheckConservation(source string) []obs.Violation {
	ck := obs.NewChecker(source)
	s := c.stats
	ck.Check(len(c.outstanding) == 0, "no-outstanding-reads",
		"%d reads still in flight (Finish not called?)", len(c.outstanding))
	ck.CheckEq(int64(s.IssuedMemReads), int64(s.RetiredMemReads+s.Prefetches),
		"mem-reads-issued==retired+prefetches")
	ck.Check(s.L1Misses >= s.L2Misses, "l1-misses>=l2-misses",
		"%d L1, %d L2", s.L1Misses, s.L2Misses)
	ck.Check(s.L2Misses >= s.L3Misses, "l2-misses>=l3-misses",
		"%d L2, %d L3", s.L2Misses, s.L3Misses)
	ck.Check(s.L1Misses <= s.DemandReads+s.DemandWrites, "l1-misses<=demand-accesses",
		"%d misses, %d accesses", s.L1Misses, s.DemandReads+s.DemandWrites)
	return ck.Violations()
}
