package memctrl

import (
	"fmt"
	"reflect"
	"testing"
)

// layoutRef is one channel's replica layout (§III-A, §III-E), written
// out by hand: where each address's rank lands, where its copies live,
// which chain each serving rank serves, and which ranks the fast
// designs' frequency switches act on.
type layoutRef struct {
	// fold[r] is the decoded (original) rank of an address whose rank
	// bits read r.
	fold []int
	// copies[o] lists the copy ranks of decoded rank o, for every o
	// that fold produces.
	copies map[int][]int
	// chain[ri] is the decoded rank whose requests serving rank ri
	// serves, -1 for a rank that holds no data.
	chain []int
	// parked are the original ranks that read mode parks in
	// self-refresh, and switched the copy ranks that it runs at the fast
	// point. Only the fast designs switch; the baseline and FMR leave
	// every rank awake at spec.
	parked, switched []int
}

// layoutRefs is the reference for Ranks 4 and 8 (RanksPerMod 2) and
// every replication mode.
var layoutRefs = map[int]map[Replication]layoutRef{
	4: {
		ReplicationNone: {
			fold:   []int{0, 1, 2, 3},
			copies: map[int][]int{0: nil, 1: nil, 2: nil, 3: nil},
			chain:  []int{0, 1, 2, 3},
		},
		ReplicationFMR: {
			fold:   []int{0, 1, 0, 1},
			copies: map[int][]int{0: {2}, 1: {3}},
			chain:  []int{0, 1, 0, 1},
		},
		ReplicationHeteroDMR: {
			fold:     []int{0, 1, 0, 1},
			copies:   map[int][]int{0: {2}, 1: {3}},
			chain:    []int{0, 1, 0, 1},
			parked:   []int{0, 1},
			switched: []int{2, 3},
		},
		ReplicationHeteroDMRFMR: {
			fold:     []int{0, 0, 0, 0},
			copies:   map[int][]int{0: {2, 3}},
			chain:    []int{0, -1, 0, 0},
			parked:   []int{0, 1},
			switched: []int{2, 3},
		},
	},
	8: {
		ReplicationNone: {
			fold:   []int{0, 1, 2, 3, 4, 5, 6, 7},
			copies: map[int][]int{0: nil, 1: nil, 2: nil, 3: nil, 4: nil, 5: nil, 6: nil, 7: nil},
			chain:  []int{0, 1, 2, 3, 4, 5, 6, 7},
		},
		ReplicationFMR: {
			fold:   []int{0, 1, 2, 3, 0, 1, 2, 3},
			copies: map[int][]int{0: {4}, 1: {5}, 2: {6}, 3: {7}},
			chain:  []int{0, 1, 2, 3, 0, 1, 2, 3},
		},
		ReplicationHeteroDMR: {
			fold:     []int{0, 1, 2, 3, 0, 1, 2, 3},
			copies:   map[int][]int{0: {4}, 1: {5}, 2: {6}, 3: {7}},
			chain:    []int{0, 1, 2, 3, 0, 1, 2, 3},
			parked:   []int{0, 1, 2, 3},
			switched: []int{4, 5, 6, 7},
		},
		ReplicationHeteroDMRFMR: {
			fold:     []int{0, 0, 0, 0, 0, 0, 0, 0},
			copies:   map[int][]int{0: {4, 5}},
			chain:    []int{0, -1, -1, -1, 0, 0, -1, -1},
			parked:   []int{0, 1, 2, 3},
			switched: []int{4, 5, 6, 7},
		},
	},
}

// TestReplicaLayoutMatchesReference holds every channel's address fold,
// copy map, serving-rank chain map and frequency-switch rank sets to
// layoutRefs. The parked and switched sets are read off the ranks
// themselves, after construction (read mode) and after a switch to the
// slow phase and back.
func TestReplicaLayoutMatchesReference(t *testing.T) {
	modes := []Replication{ReplicationNone, ReplicationFMR, ReplicationHeteroDMR, ReplicationHeteroDMRFMR}
	for _, ranks := range []int{4, 8} {
		for _, repl := range modes {
			ref := layoutRefs[ranks][repl]
			t.Run(fmt.Sprintf("%d/%v", ranks, repl), func(t *testing.T) {
				fast := fastPoint()
				cfg := DefaultConfig(repl, specPoint(), &fast)
				cfg.Ranks, cfg.RanksPerMod = ranks, 2
				c := MustNewChannel(cfg)

				fold := make([]int, ranks)
				copies := map[int][]int{}
				for r := range fold {
					addr := (uint64(r) << uint(c.colBits+c.bankBits)) * uint64(cfg.BlockBytes)
					fold[r], _, _ = c.decode(addr)
					copies[fold[r]] = c.appendCopyRanks(nil, fold[r])
				}
				if !reflect.DeepEqual(fold, ref.fold) {
					t.Errorf("fold = %v, want %v", fold, ref.fold)
				}
				if !reflect.DeepEqual(copies, ref.copies) {
					t.Errorf("copies = %v, want %v", copies, ref.copies)
				}
				if !reflect.DeepEqual(c.chainRank, ref.chain) {
					t.Errorf("chainRank = %v, want %v", c.chainRank, ref.chain)
				}

				specClock, fastClock := cfg.Spec.Rate.ClockPS(), fast.Rate.ClockPS()
				check := func(phase string, parked, switched []int) {
					t.Helper()
					var gotParked, gotSwitched []int
					for i := 0; i < ranks; i++ {
						if c.Rank(i).InSelfRefresh() {
							gotParked = append(gotParked, i)
						}
						switch clk := c.Rank(i).ClockPS(); clk {
						case fastClock:
							gotSwitched = append(gotSwitched, i)
						case specClock:
						default:
							t.Errorf("%s: rank %d clock %d ps is neither spec nor fast", phase, i, clk)
						}
					}
					if !reflect.DeepEqual(gotParked, parked) {
						t.Errorf("%s: parked ranks %v, want %v", phase, gotParked, parked)
					}
					if !reflect.DeepEqual(gotSwitched, switched) {
						t.Errorf("%s: fast ranks %v, want %v", phase, gotSwitched, switched)
					}
				}
				check("read mode", ref.parked, ref.switched)
				if !repl.Fast() {
					return
				}
				c.transitionToSlow()
				check("slow phase", nil, nil)
				c.transitionToFast()
				check("read mode again", ref.parked, ref.switched)
			})
		}
	}
}
