// Package dram models DDR4 devices at command granularity: ranks of banks
// with row-buffer state machines, JEDEC-style timing constraint tracking
// (tRCD, tRP, tRAS, tRTP, tWR, tRRD, tFAW, tRFC, tREFI), auto-refresh,
// self-refresh, and the frequency-switch sequence of Figs 9-10 in the
// paper.
//
// The model is purely a timing plane: data contents live with the
// replication manager in internal/heterodmr. All times are absolute
// virtual picoseconds; commands are issued at explicit instants and the
// model enforces that each command respects every constraint (returning
// the earliest legal issue instant on request). This is the substitution
// for Ramulator documented in DESIGN.md.
package dram

import (
	"fmt"

	"repro/internal/dramspec"
)

// RowClosed marks a bank with no open row.
const RowClosed int64 = -1

// Bank is one DRAM bank's row-buffer and timing state.
type Bank struct {
	row int64 // open row, or RowClosed

	actTime     int64 // when the last ACT issued
	readyAct    int64 // earliest next ACT (tRP after precharge)
	readyCol    int64 // earliest next RD/WR (tRCD after ACT)
	readyPreRAS int64 // tRAS component of precharge readiness
	readyPreCol int64 // tRTP / tWR component of precharge readiness

	// Statistics.
	Activates  uint64
	Precharges uint64
}

// OpenRow returns the currently open row or RowClosed.
func (b *Bank) OpenRow() int64 { return b.row }

// Rank is a group of banks operating in lockstep, the unit that enters
// and leaves self-refresh under Hetero-DMR's read mode.
type Rank struct {
	banks  []Bank
	timing dramspec.Timing
	clock  int64 // clock period in ps

	lastAct    int64    // for tRRD
	actWindow  [4]int64 // issue times of the last four ACTs, for tFAW
	actWindowI int

	nextRefresh int64 // absolute deadline of the next auto-refresh
	refBusyEnd  int64 // all banks blocked until here by REF / SRX

	selfRefresh bool
	xsPS        int64 // self-refresh exit latency override (0 = tRFC+10ns)

	// Statistics.
	Refreshes     uint64
	SelfRefEnters uint64
	SelfRefExits  uint64
	Reads         uint64
	Writes        uint64
}

// NewRank returns a rank with the given number of banks, timing, and
// clock period in picoseconds. It panics if banks <= 0 or clockPS <= 0.
func NewRank(banks int, t dramspec.Timing, clockPS int64) *Rank {
	if banks <= 0 {
		panic("dram: non-positive bank count")
	}
	if clockPS <= 0 {
		panic("dram: non-positive clock period")
	}
	r := &Rank{banks: make([]Bank, banks), timing: t, clock: clockPS}
	for i := range r.banks {
		r.banks[i].row = RowClosed
	}
	r.nextRefresh = t.TREFI
	return r
}

// Banks returns the number of banks in the rank.
func (r *Rank) Banks() int { return len(r.banks) }

// Bank returns bank i's state for inspection. It panics on a bad index.
func (r *Rank) Bank(i int) *Bank { return &r.banks[i] }

// Timing returns the rank's current timing parameters.
func (r *Rank) Timing() dramspec.Timing { return r.timing }

// ClockPS returns the rank's current clock period in picoseconds.
func (r *Rank) ClockPS() int64 { return r.clock }

// SetConfig retargets the rank to new timing and clock period, modelling
// the completion of a frequency switch. The rank must not be in
// self-refresh (real hardware re-locks the DLL with the DRAM quiescent;
// the controller performs the sequence via FrequencySwitch).
func (r *Rank) SetConfig(t dramspec.Timing, clockPS int64) {
	if clockPS <= 0 {
		panic("dram: non-positive clock period")
	}
	if r.selfRefresh {
		panic("dram: SetConfig during self-refresh")
	}
	r.timing = t
	r.clock = clockPS
}

// BurstPS returns the data-bus occupancy of one burst (BL/2 clocks).
func (r *Rank) BurstPS() int64 {
	return int64(r.timing.BurstLength/2) * r.clock
}

func (r *Rank) checkBank(b int) *Bank {
	if b < 0 || b >= len(r.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", b, len(r.banks)))
	}
	return &r.banks[b]
}

func max64(xs ...int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// EarliestActivate returns the earliest instant >= now at which an ACT to
// bank b is legal (bank precharged, tRRD, tFAW, refresh windows honored).
func (r *Rank) EarliestActivate(b int, now int64) int64 {
	bank := r.checkBank(b)
	if r.selfRefresh {
		panic("dram: ACT during self-refresh")
	}
	if bank.row != RowClosed {
		panic("dram: ACT to bank with open row (precharge first)")
	}
	faw := r.actWindow[r.actWindowI] + r.timing.TFAW // oldest of last 4
	return max64(now, bank.readyAct, r.lastAct+r.timing.TRRD, faw, r.refBusyEnd)
}

// Activate opens row in bank b at instant `at`. The caller must have
// obtained `at` from EarliestActivate; issuing early panics (it would be a
// JEDEC violation, i.e. a simulator bug).
func (r *Rank) Activate(b int, row int64, at int64) {
	bank := r.checkBank(b)
	if e := r.EarliestActivate(b, at); at < e {
		panic(fmt.Sprintf("dram: ACT at %d before earliest %d", at, e))
	}
	if row < 0 {
		panic("dram: ACT with negative row")
	}
	bank.row = row
	bank.actTime = at
	bank.readyCol = at + r.timing.TRCD
	bank.readyPreRAS = at + r.timing.TRAS
	bank.Activates++
	r.lastAct = at
	r.actWindow[r.actWindowI] = at
	r.actWindowI = (r.actWindowI + 1) % len(r.actWindow)
}

// EarliestColumn returns the earliest instant >= now at which a RD or WR
// to bank b's open row is legal. The data-bus availability is the
// channel's concern; this covers only bank/rank constraints.
func (r *Rank) EarliestColumn(b int, now int64) int64 {
	bank := r.checkBank(b)
	if r.selfRefresh {
		panic("dram: column command during self-refresh")
	}
	if bank.row == RowClosed {
		panic("dram: column command with no open row")
	}
	return max64(now, bank.readyCol, r.refBusyEnd)
}

// Read issues a RD at instant `at` and returns the instant the last data
// beat leaves the pins (at + tCL + burst).
func (r *Rank) Read(b int, at int64) int64 {
	bank := r.checkBank(b)
	if e := r.EarliestColumn(b, at); at < e {
		panic(fmt.Sprintf("dram: RD at %d before earliest %d", at, e))
	}
	end := at + r.timing.TCL + r.BurstPS()
	// Next precharge must respect tRTP from this read.
	if pre := at + r.timing.TRTP; pre > bank.readyPreCol {
		bank.readyPreCol = pre
	}
	// Back-to-back columns respect tCCD.
	if nxt := at + r.timing.TCCD; nxt > bank.readyCol {
		bank.readyCol = nxt
	}
	r.Reads++
	return end
}

// Write issues a WR at instant `at` and returns the instant the write
// completes internally (at + tCWL + burst + tWR governs precharge).
func (r *Rank) Write(b int, at int64) int64 {
	bank := r.checkBank(b)
	if e := r.EarliestColumn(b, at); at < e {
		panic(fmt.Sprintf("dram: WR at %d before earliest %d", at, e))
	}
	dataEnd := at + r.timing.TCWL + r.BurstPS()
	if pre := dataEnd + r.timing.TWR; pre > bank.readyPreCol {
		bank.readyPreCol = pre
	}
	if nxt := at + r.timing.TCCD; nxt > bank.readyCol {
		bank.readyCol = nxt
	}
	r.Writes++
	return dataEnd
}

// EarliestPrecharge returns the earliest instant >= now at which a PRE to
// bank b is legal (tRAS, tRTP, tWR honored).
func (r *Rank) EarliestPrecharge(b int, now int64) int64 {
	bank := r.checkBank(b)
	if r.selfRefresh {
		panic("dram: PRE during self-refresh")
	}
	if bank.row == RowClosed {
		panic("dram: PRE with no open row")
	}
	return max64(now, bank.readyPreRAS, bank.readyPreCol, r.refBusyEnd)
}

// Precharge closes bank b's row at instant `at`; the bank can accept a new
// ACT tRP later.
func (r *Rank) Precharge(b int, at int64) {
	bank := r.checkBank(b)
	if e := r.EarliestPrecharge(b, at); at < e {
		panic(fmt.Sprintf("dram: PRE at %d before earliest %d", at, e))
	}
	bank.row = RowClosed
	bank.readyAct = at + r.timing.TRP
	bank.Precharges++
}

// RefreshDue reports whether an auto-refresh deadline has passed. Ranks in
// self-refresh handle refresh internally and are never due.
func (r *Rank) RefreshDue(now int64) bool {
	return !r.selfRefresh && now >= r.nextRefresh
}

// NextRefresh returns the absolute deadline of the next auto-refresh.
// Meaningless while the rank is in self-refresh (the rank refreshes
// itself; ExitSelfRefresh re-arms the deadline). Controllers use it to
// index the earliest due refresh instead of polling RefreshDue per rank.
func (r *Rank) NextRefresh() int64 { return r.nextRefresh }

// Refresh performs an all-bank refresh starting at `at`. All rows must be
// closed. It blocks the rank for tRFC and returns when the rank is usable
// again.
func (r *Rank) Refresh(at int64) int64 {
	if r.selfRefresh {
		panic("dram: REF during self-refresh")
	}
	for i := range r.banks {
		if r.banks[i].row != RowClosed {
			panic(fmt.Sprintf("dram: REF with bank %d open", i))
		}
	}
	end := at + r.timing.TRFC
	r.refBusyEnd = end
	r.nextRefresh += r.timing.TREFI
	if r.nextRefresh <= at { // catch up after long gaps
		r.nextRefresh = at + r.timing.TREFI
	}
	r.Refreshes++
	return end
}

// InSelfRefresh reports whether the rank is in self-refresh mode.
func (r *Rank) InSelfRefresh() bool { return r.selfRefresh }

// EnterSelfRefresh puts the rank into self-refresh at instant `at`. All
// rows must be closed. In this mode the rank ignores the external clock
// and refreshes itself with its internal oscillator — this is how
// Hetero-DMR keeps original-block modules safe while the channel clock
// runs unsafely fast (§III-A2).
func (r *Rank) EnterSelfRefresh(at int64) {
	if r.selfRefresh {
		panic("dram: already in self-refresh")
	}
	for i := range r.banks {
		if r.banks[i].row != RowClosed {
			panic(fmt.Sprintf("dram: SRE with bank %d open", i))
		}
	}
	r.selfRefresh = true
	r.SelfRefEnters++
	_ = at
}

// SetExitLatency overrides the self-refresh exit latency (tXS). Zero
// restores the physical default of tRFC + 10ns. Scaled node simulations
// use this so per-transition costs shrink with the scale factor (see
// node.Config.ScaleShift).
func (r *Rank) SetExitLatency(ps int64) {
	if ps < 0 {
		panic("dram: negative exit latency")
	}
	r.xsPS = ps
}

// ExitLatency returns the effective self-refresh exit latency.
func (r *Rank) ExitLatency() int64 {
	if r.xsPS > 0 {
		return r.xsPS
	}
	return r.timing.TRFC + 10*dramspec.Nanosecond
}

// ExitSelfRefresh leaves self-refresh at instant `at` and returns the
// instant the rank accepts commands again (tXS ~= tRFC + 10ns by default;
// see SetExitLatency).
func (r *Rank) ExitSelfRefresh(at int64) int64 {
	if !r.selfRefresh {
		panic("dram: SRX while not in self-refresh")
	}
	r.selfRefresh = false
	r.SelfRefExits++
	end := at + r.ExitLatency()
	r.refBusyEnd = end
	// Refresh bookkeeping restarts relative to the exit.
	r.nextRefresh = end + r.timing.TREFI
	return end
}

// PrechargeAll closes every open row as early as legal starting from now
// and returns the instant all banks are precharged. It is the first step
// of both refresh scheduling and the frequency-switch sequence.
func (r *Rank) PrechargeAll(now int64) int64 {
	done := now
	for i := range r.banks {
		if r.banks[i].row == RowClosed {
			continue
		}
		at := r.EarliestPrecharge(i, now)
		r.Precharge(i, at)
		if end := at + r.timing.TRP; end > done {
			done = end
		}
	}
	return done
}
