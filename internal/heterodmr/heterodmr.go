// Package heterodmr implements the paper's primary contribution as a
// functional library: Heterogeneously-accessed Dual Module Redundancy
// (§III). It is the data plane that complements internal/memctrl's timing
// plane:
//
//   - every block is opportunistically replicated into the channel's free
//     module when at least half the modules are free (§III-E);
//   - the copy module — selected margin-aware (§III-D1) — is operated
//     unsafely fast and serves the common-case reads;
//   - writes broadcast to the original and its copy in one transaction,
//     both carrying identical Bamboo ECC bytes (§III-C);
//   - copy reads are checked with detection-only Reed-Solomon decoding
//     (§III-B): any corruption of up to eight bytes is caught with
//     certainty and repaired from the always-in-spec original;
//   - detected errors are counted against the per-epoch budget that keeps
//     the mean time to an escaped SDC above one billion years; a tripped
//     epoch falls back to specification until the next epoch.
//
// The package carries real data and real ECC so that the reliability
// claims are executable: the tests inject every error class the paper
// discusses (bit flips, multi-byte, full-block, 8B+, and address/command
// errors) and verify that reads never return corrupted data.
package heterodmr

import (
	"errors"
	"fmt"

	"repro/internal/ecc"
	"repro/internal/margin"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// BlockSize is the memory block (cache line) size in bytes.
const BlockSize = ecc.BlockSize

// FaultModel describes how reads from the unsafely fast copy module get
// corrupted (the error classes of §III and Fig 6).
type FaultModel struct {
	// PerReadErrorProb is the probability a fast copy read returns
	// corrupted data.
	PerReadErrorProb float64
	// WideErrorProb is, given an error, the probability it spans more
	// than eight bytes (an "8B+ error": command/IO failures).
	WideErrorProb float64
	// AddressErrorProb is, given an error, the probability the module
	// returns the content of a wrong location (address bus error).
	AddressErrorProb float64
	// OriginalErrorProb is the probability a read of an ORIGINAL block
	// suffers a natural (in-spec) error of 1-4 bytes, which conventional
	// ECC corrects (§III-C: originals use ECC just like conventional
	// systems).
	OriginalErrorProb float64
}

// Config assembles a Hetero-DMR channel controller.
type Config struct {
	// Modules are the channel's DIMMs (at least two for replication).
	Modules []margin.Module
	// Bench measures module margins for the margin-aware selection.
	Bench *margin.Bench
	// MTTSDCTargetYears sets the epoch error budget (default 1e9 years).
	MTTSDCTargetYears float64
	Faults            FaultModel
	Seed              uint64
}

// Stats counts the controller's activity.
type Stats struct {
	Reads             uint64
	FastReads         uint64 // served by the unsafely fast copy module
	SpecReads         uint64 // served from the original at specification
	NotWritten        uint64 // reads of never-written addresses
	Writes            uint64
	BroadcastWrites   uint64
	DetectPasses      uint64 // fast copy reads that passed detection-only ECC
	DetectedErrors    uint64
	WideErrors        uint64 // 8B+ detected errors (count against the epoch budget)
	Corrections       uint64 // copies repaired from originals
	Uncorrectable     uint64 // repairs that failed on the original too
	NaturalCorrected  uint64 // ECC corrections on original blocks
	EpochFallbacks    uint64 // reads served at spec because the epoch tripped
	ReplicationPauses uint64 // utilization rose above 50%: replication off
}

type storedBlock struct {
	data   [BlockSize]byte
	parity [ecc.ParityBytes]byte
}

// Controller is one channel's Hetero-DMR state machine. Not safe for
// concurrent use.
//
// Blocks are stored by value so steady-state writes and reads allocate
// nothing: a store is a map assignment (no per-block heap object) and a
// read lands in the controller's scratch buffer.
type Controller struct {
	cfg   Config
	codec *ecc.Codec
	epoch *ecc.EpochCounter
	rng   *xrand.Rand

	orig   map[uint64]storedBlock // module with originals (always in spec)
	copies map[uint64]storedBlock // free-module copies (unsafely fast)

	copyModule  int // index into cfg.Modules of the module holding copies
	replicating bool

	// readBuf is the block scratch every Read resolves into; the returned
	// slice aliases it and is valid until the next Read on this controller.
	readBuf [BlockSize]byte

	stats Stats
	rec   *obs.Recorder // epoch-budget events; nil-safe when unobserved
}

// ErrNotWritten reports a read of an address that was never written.
var ErrNotWritten = errors.New("heterodmr: address never written")

// New builds a controller. It returns an error unless the channel has at
// least two modules and a bench for margin measurement.
func New(cfg Config) (*Controller, error) {
	if len(cfg.Modules) < 2 {
		return nil, fmt.Errorf("heterodmr: need at least two modules, have %d", len(cfg.Modules))
	}
	if cfg.Bench == nil {
		return nil, errors.New("heterodmr: missing margin bench")
	}
	if cfg.MTTSDCTargetYears == 0 {
		cfg.MTTSDCTargetYears = 1e9
	}
	c := &Controller{
		cfg:    cfg,
		codec:  ecc.NewCodec(),
		epoch:  ecc.NewEpochCounter(ecc.EpochBudget(cfg.MTTSDCTargetYears)),
		rng:    xrand.New(cfg.Seed),
		orig:   make(map[uint64]storedBlock),
		copies: make(map[uint64]storedBlock),
	}
	c.copyModule = c.selectCopyModule()
	c.SetUtilization(0)
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// selectCopyModule implements the §III-D1 margin-aware selection: operate
// the module with the highest measured frequency margin unsafely fast.
func (c *Controller) selectCopyModule() int {
	best, bestMargin := 0, -1
	for i := range c.cfg.Modules {
		m := int(c.cfg.Bench.MeasureMargin(&c.cfg.Modules[i], false))
		if m > bestMargin {
			best, bestMargin = i, m
		}
	}
	return best
}

// CopyModule returns the module selected to hold copies and run fast.
func (c *Controller) CopyModule() *margin.Module { return &c.cfg.Modules[c.copyModule] }

// ChannelMargin returns the channel-level frequency margin: the selected
// module's margin (§III-D1).
func (c *Controller) ChannelMargin() int {
	return int(c.cfg.Bench.MeasureMargin(&c.cfg.Modules[c.copyModule], false))
}

// Replicating reports whether copies are active.
func (c *Controller) Replicating() bool { return c.replicating }

// SetUtilization informs the controller of the channel's memory
// utilization; replication activates below 50% (half the modules free,
// §III-E) and deactivates at or above it. Activation re-replicates every
// live block; deactivation releases the copies (like powering freed
// modules off, no handling needed for their stale content).
func (c *Controller) SetUtilization(u float64) {
	if u < 0 || u > 1 {
		panic(fmt.Sprintf("heterodmr: utilization %v out of [0,1]", u))
	}
	active := u < 0.5
	if active == c.replicating {
		return
	}
	c.replicating = active
	if !active {
		c.copies = make(map[uint64]storedBlock)
		c.stats.ReplicationPauses++
		return
	}
	// Replicate every block into the free module.
	//lint:allow maporder map-to-map copy; iteration order cannot reach any output
	for addr, b := range c.orig {
		c.copies[addr] = b
	}
}

// Write stores a block. Under replication the write broadcasts to the
// original and its copy in a single transaction; both carry the same ECC
// bytes because detection-only decoding changes only the decode side
// (§III-C). It panics if len(data) != BlockSize.
func (c *Controller) Write(addr uint64, data []byte) {
	if len(data) != BlockSize {
		panic(fmt.Sprintf("heterodmr: write of %d bytes", len(data)))
	}
	var b storedBlock
	b.parity = c.codec.Encode(addr, data)
	copy(b.data[:], data)
	c.orig[addr] = b
	c.stats.Writes++
	if c.replicating {
		c.copies[addr] = b
		c.stats.BroadcastWrites++
	}
}

// ReadOutcome describes how a read was served.
type ReadOutcome struct {
	FastPath  bool // served from the unsafely fast copy
	Detected  bool // detection-only ECC flagged the copy
	WideError bool // the detected error spanned more than eight bytes
	Corrected bool // the copy was repaired from the original
	Natural   bool // a natural error on the original was ECC-corrected
}

// Read returns the current value of a block. Copy reads are fault-injected
// per the configured model and verified with detection-only ECC; detected
// errors are repaired from the original (§III-C) and counted against the
// epoch budget. Reads never return corrupted data unless the 2^-64
// detection escape fires (never, in practice).
//
// The returned slice aliases the controller's scratch buffer and is only
// valid until the next Read; callers that keep block contents copy them.
func (c *Controller) Read(addr uint64) ([]byte, ReadOutcome, error) {
	c.stats.Reads++
	var out ReadOutcome
	if !c.replicating || c.epoch.Tripped() {
		if c.epoch.Tripped() && c.replicating {
			c.stats.EpochFallbacks++
		}
		data, natural, err := c.readOriginal(addr)
		if errors.Is(err, ErrNotWritten) {
			c.stats.NotWritten++
		} else {
			c.stats.SpecReads++
		}
		out.Natural = natural
		return data, out, err
	}
	cp, ok := c.copies[addr]
	if !ok {
		// Blocks written before activation are replicated on activation,
		// so a missing copy means the address was never written.
		c.stats.NotWritten++
		return nil, out, ErrNotWritten
	}
	out.FastPath = true
	c.stats.FastReads++

	// Model the unsafe read: possibly corrupted data/parity/address. The
	// data lands in the scratch buffer, so a clean read allocates nothing.
	c.readBuf = cp.data
	parity := cp.parity
	if c.rng.Bool(c.cfg.Faults.PerReadErrorProb) {
		wide := c.injectFault(addr, &c.readBuf, &parity)
		out.WideError = wide
	}
	if c.codec.DecodeDetectOnly(addr, c.readBuf[:], parity) == nil {
		c.stats.DetectPasses++
		return c.readBuf[:], out, nil
	}
	// Detected: repair from the original (§III-C) — slow the channel,
	// read the original reliably, overwrite the copy, speed back up.
	out.Detected = true
	c.stats.DetectedErrors++
	if out.WideError {
		c.stats.WideErrors++
	}
	if c.epoch.Record(1) {
		c.rec.Emit(int64(c.stats.Reads), "epoch", "budget-tripped")
	}
	good, natural, err := c.readOriginal(addr)
	if err != nil {
		c.stats.Uncorrectable++
		return nil, out, err
	}
	out.Natural = natural
	var fixed storedBlock
	fixed.parity = c.codec.Encode(addr, good)
	copy(fixed.data[:], good)
	c.copies[addr] = fixed
	out.Corrected = true
	c.stats.Corrections++
	return good, out, nil
}

// readOriginal reads the always-in-spec original with conventional ECC
// correction for natural errors. The returned slice aliases the
// controller's scratch buffer, like Read's.
func (c *Controller) readOriginal(addr uint64) (data []byte, natural bool, err error) {
	b, ok := c.orig[addr]
	if !ok {
		return nil, false, ErrNotWritten
	}
	c.readBuf = b.data
	p := b.parity
	if c.rng.Bool(c.cfg.Faults.OriginalErrorProb) {
		// Natural in-spec error: 1-4 corrupted bytes, within the
		// conventional correction capability.
		n := 1 + c.rng.Intn(4)
		for _, pos := range c.rng.Perm(BlockSize)[:n] {
			c.readBuf[pos] ^= byte(1 + c.rng.Intn(255))
		}
		natural = true
	}
	if _, err := c.codec.DecodeCorrect(addr, c.readBuf[:], p); err != nil {
		return nil, natural, fmt.Errorf("heterodmr: uncorrectable error in original block %#x: %w", addr, err)
	}
	if natural {
		c.stats.NaturalCorrected++
		// Scrub the corrected value back.
		var fixed storedBlock
		fixed.parity = c.codec.Encode(addr, c.readBuf[:])
		fixed.data = c.readBuf
		c.orig[addr] = fixed
	}
	return c.readBuf[:], natural, nil
}

// injectFault corrupts a copy read per the fault model and reports
// whether it was an 8B+ error.
func (c *Controller) injectFault(addr uint64, data *[BlockSize]byte, parity *[ecc.ParityBytes]byte) (wide bool) {
	f := c.cfg.Faults
	switch {
	case c.rng.Bool(f.AddressErrorProb):
		// Address/command error: the module returns another location's
		// content (or garbage if none exists). Address-aware ECC detects
		// this even though the data+parity are internally consistent.
		if other, ok := c.copies[addr^0x40]; ok {
			*data = other.data
			*parity = other.parity
		} else {
			for i := range data {
				data[i] = byte(c.rng.Uint64())
			}
		}
		return true
	case c.rng.Bool(f.WideErrorProb):
		// 8B+ error: corrupt 9..40 bytes (IO/command failure).
		n := 9 + c.rng.Intn(32)
		for _, pos := range c.rng.Perm(BlockSize)[:n] {
			data[pos] ^= byte(1 + c.rng.Intn(255))
		}
		return true
	default:
		// Narrow error: 1..8 bad bytes, possibly touching the ECC bytes.
		n := 1 + c.rng.Intn(8)
		for _, pos := range c.rng.Perm(BlockSize + ecc.ParityBytes)[:n] {
			if pos < BlockSize {
				data[pos] ^= byte(1 + c.rng.Intn(255))
			} else {
				parity[pos-BlockSize] ^= byte(1 + c.rng.Intn(255))
			}
		}
		return false
	}
}

// NextEpoch closes the hourly epoch: the error counter re-arms and, if
// the budget had tripped, replication resumes fast operation (§III-B).
func (c *Controller) NextEpoch() {
	c.rec.Emit(int64(c.stats.Reads), "epoch",
		fmt.Sprintf("close count=%d tripped=%v", c.epoch.Count(), c.epoch.Tripped()))
	c.epoch.NextEpoch()
}

// EpochTripped reports whether the current epoch exhausted its budget.
func (c *Controller) EpochTripped() bool { return c.epoch.Tripped() }

// EpochBudget returns the per-epoch detected-error budget.
func (c *Controller) EpochBudget() uint64 { return c.epoch.Budget() }

// ActiveFraction returns the fraction of completed epochs fully at speed.
func (c *Controller) ActiveFraction() float64 { return c.epoch.ActiveFraction() }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Observe routes the controller's epoch-budget events into a registry
// under the given source name. A nil registry detaches.
func (c *Controller) Observe(reg *obs.Registry, source string) {
	c.rec = reg.Recorder(source)
}

// CheckConservation verifies the controller's read/ECC accounting:
// every read is served by exactly one path, every fast copy read either
// passes detection or is detected, and every detection is resolved by a
// correction or an uncorrectable failure.
func (c *Controller) CheckConservation(source string) []obs.Violation {
	ck := obs.NewChecker(source)
	s := c.stats
	ck.CheckEq(int64(s.Reads), int64(s.FastReads+s.SpecReads+s.NotWritten),
		"reads==fast+spec+notwritten")
	ck.CheckEq(int64(s.FastReads), int64(s.DetectPasses+s.DetectedErrors),
		"copy-reads==detect-pass+detect-fail")
	ck.CheckEq(int64(s.DetectedErrors), int64(s.Corrections+s.Uncorrectable),
		"detects==corrections+uncorrectable")
	ck.Check(s.WideErrors <= s.DetectedErrors, "wide-errors<=detects",
		"%d wide, %d detected", s.WideErrors, s.DetectedErrors)
	ck.Check(s.BroadcastWrites <= s.Writes, "broadcasts<=writes",
		"%d broadcasts, %d writes", s.BroadcastWrites, s.Writes)
	ck.Check(len(c.copies) <= len(c.orig), "copies<=originals",
		"%d copies, %d originals", len(c.copies), len(c.orig))
	return ck.Violations()
}

// RemapAfterPermanentFault handles a permanent yet correctable fault in
// the copy module (§III-E): the roles swap, so copies move to the healthy
// module and originals to the faulty one (where conventional ECC keeps
// correcting the permanent fault at spec speed).
func (c *Controller) RemapAfterPermanentFault() {
	c.copyModule = (c.copyModule + 1) % len(c.cfg.Modules)
	if c.replicating {
		// Re-replicate into the new copy module.
		c.copies = make(map[uint64]storedBlock)
		//lint:allow maporder map-to-map copy; iteration order cannot reach any output
		for addr, b := range c.orig {
			c.copies[addr] = b
		}
	}
}
