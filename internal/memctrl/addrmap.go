package memctrl

// Address mapping: physical address -> (rank, bank, row, column) with an
// XOR-based bank index similar to Intel Skylake (Table IV cites the
// DRAMA-reverse-engineered mapping): the bank bits are XORed with the low
// row bits so that strided streams spread across banks.
//
// Bit layout of the block address (addr >> log2(BlockBytes)), low to high:
//
//	[ column | bank | rank | row ]
//
// Replication modes fold the software-visible rank bits into the in-use
// module(s) — the paper's free-memory layout where the original data
// occupies half (Hetero-DMR, FMR) or a quarter (Hetero-DMR+FMR) of the
// ranks and copies live at the same in-module location of the free module.

// decode splits an address into its original-module placement.
func (c *Channel) decode(addr uint64) (rank, bank int, row int64) {
	ba := addr / uint64(c.cfg.BlockBytes)
	ba >>= uint(c.colBits)
	bank = int(ba & uint64(c.cfg.BanksPerRank-1))
	ba >>= uint(c.bankBits)
	rank = int(ba & uint64(c.cfg.Ranks-1))
	ba >>= uint(c.rankBits)
	row = int64(ba)
	// XOR-based bank hashing against the low row bits.
	bank ^= int(uint64(row) & uint64(c.cfg.BanksPerRank-1))
	return c.foldRank(rank), bank, row
}

// foldRank maps a software-visible rank to the rank holding its
// original, in the in-use portion of the channel. decode calls it on
// every request, so it must stay inlinable.
func (c *Channel) foldRank(rank int) int {
	switch c.cfg.Replication {
	case ReplicationFMR, ReplicationHeteroDMR:
		return rank & (c.cfg.Ranks/2 - 1) // originals confined to the first module(s)
	case ReplicationHeteroDMRFMR:
		return 0 // <25% utilization: originals fit one rank
	}
	return rank
}

// appendCopyRanks appends the copy ranks of origRank to dst. Empty for
// the baseline. It is the one statement of the copy map: NewChannel
// builds the replicas table from it.
func (c *Channel) appendCopyRanks(dst []int, origRank int) []int {
	half := c.cfg.Ranks / 2
	switch c.cfg.Replication {
	case ReplicationFMR, ReplicationHeteroDMR:
		return append(dst, origRank+half)
	case ReplicationHeteroDMRFMR:
		return append(dst, half, half+1)
	default:
		return dst
	}
}

// readCandidateRanks returns the ranks a read may be served from: every
// replica, so FMR and Hetero-DMR's slow phase (everything at
// specification, originals awake) pick the best one. Fast read mode must
// not touch the originals (they are in self-refresh), so only the copies
// are candidates.
func (c *Channel) readCandidateRanks(origRank int) []int {
	if c.fastMode {
		return c.replicas[origRank][1:]
	}
	return c.replicas[origRank]
}

// globalBank flattens (rank, bank) for per-bank bookkeeping.
func (c *Channel) globalBank(rank, bank int) int {
	return rank*c.cfg.BanksPerRank + bank
}

// splitBank inverts globalBank (BanksPerRank is a power of two).
func (c *Channel) splitBank(gb int) (rank, bank int) {
	return gb >> c.bankBits, gb & (c.cfg.BanksPerRank - 1)
}
