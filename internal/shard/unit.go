// Package shard is the coordinator/worker execution layer: it fans the
// experiment matrix out across processes. Work units are the same
// simulations the in-process engine runs — positional-seeded node
// cells, Monte-Carlo shard ranges and Fig 17's cluster simulations —
// identified by their content hash in the persistent run-cache keyspace
// (internal/runcache), so a unit's identity, its cache entry, and its
// wire name are one and the same value. Units travel in batches: the
// coordinator's Pool sends the node cells of one front-end identity
// (node.FrontEndKeyOf) as one batch, the cluster simulations of one
// trace (hpc.TraceSpec) as one batch, and every Monte-Carlo range as a
// batch of one, over a small HTTP/JSON protocol (POST /shard/v1/batch).
// A worker records each front end once and replays it for every design
// in the batch, generates each trace once and schedules it on every
// cluster in the batch, then Puts every unit under its own key in a
// shared runcache store. The Pool bounds dispatch with one channel of
// slot tokens, InFlight per worker: a batch holds a token while it posts
// to that worker or executes locally in its stead, retries a failed
// dispatch on whichever worker frees a token next, and commits results
// positionally so the merged output is byte-identical to a sequential
// run regardless of worker count, batch composition or arrival order.
package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hpc"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/runcache"
	"repro/internal/workload"
)

// Unit types and Monte-Carlo levels on the wire.
const (
	UnitNode = "node"
	UnitMC   = "mc"
	UnitHPC  = "hpc"

	LevelChannel = "channel"
	LevelNode    = "node"
)

// NodeMaterial is a node-simulation unit's identity and its wire body:
// the fully resolved node configuration plus the workload profile the
// stream generator derives from. The run-cache key hashes it, so a unit
// computed by a worker lands on the same cache entry an in-process run
// consults (runcache.Canonical embeds the type name, not the json tags,
// in the hash).
type NodeMaterial struct {
	Cfg  node.Config      `json:"cfg"`
	Prof workload.Profile `json:"prof"`
}

// MCMaterial is a Monte-Carlo range unit's identity and its wire body:
// the trial configuration, the selection policy, the level, and the
// trial range. Lo must be montecarlo.ShardTrials-aligned so the range's
// draws match the sequential run exactly.
type MCMaterial struct {
	Cfg   montecarlo.Config    `json:"cfg"`
	Sel   montecarlo.Selection `json:"sel"`
	Level string               `json:"level"`
	Lo    int                  `json:"lo"`
	Hi    int                  `json:"hi"`
}

// HPCMaterial is a cluster-simulation unit's identity and its wire body:
// the trace's spec, the cluster as its resolved node count per margin,
// the scheduler policy, the Hetero-DMR model's node speedups at the 0.8
// and 0.6 GT/s margins as the simulation uses them (1 and 1 for a
// conventional system), and the simulation seed. A checked unit (Check
// true) shares a key only with checked ones, and Scope names its metrics
// and violations (hpc.SimulateObserved); its payload also carries both
// (DecodeCheckedHPC).
type HPCMaterial struct {
	Trace  hpc.TraceSpec `json:"trace"`
	Nodes  map[int]int   `json:"nodes"`
	Policy hpc.Policy    `json:"policy"`
	At800  float64       `json:"at800"`
	At600  float64       `json:"at600"`
	Seed   uint64        `json:"seed"`
	Check  bool          `json:"check,omitempty"`
	Scope  string        `json:"scope,omitempty"`
}

// maxClusterGroups bounds a cluster's margin groups: the scheduler keeps
// one node count per group and job, and Fig 17's clusters have three.
const maxClusterGroups = 16

// validate refuses a material the simulator cannot run: an invalid trace
// spec, an unknown policy, a negative margin, more than maxClusterGroups
// margins, a negative node count, a cluster of more than twice
// hpc.MaxTraceNodes nodes or of fewer nodes than the trace's widest job
// may ask for, or a speedup that is not finite and at least 1.
func (m *HPCMaterial) validate() error {
	if err := m.Trace.Validate(); err != nil {
		return err
	}
	if m.Policy != hpc.PolicyDefault && m.Policy != hpc.PolicyMarginAware {
		return fmt.Errorf("shard: unknown scheduler policy %d", m.Policy)
	}
	if len(m.Nodes) > maxClusterGroups {
		return fmt.Errorf("shard: cluster of %d margin groups, want at most %d", len(m.Nodes), maxClusterGroups)
	}
	margins := make([]int, 0, len(m.Nodes))
	for margin := range m.Nodes {
		margins = append(margins, margin)
	}
	sort.Ints(margins) // so the first refusal named is the same on every run
	total := 0
	for _, margin := range margins {
		n := m.Nodes[margin]
		if margin < 0 || n < 0 {
			return fmt.Errorf("shard: %d nodes at margin %d MT/s, want both non-negative", n, margin)
		}
		if total += n; total > 2*hpc.MaxTraceNodes {
			return fmt.Errorf("shard: cluster of more than %d nodes", 2*hpc.MaxTraceNodes)
		}
	}
	if total < m.Trace.Nodes {
		return fmt.Errorf("shard: cluster of %d nodes for a trace on %d", total, m.Trace.Nodes)
	}
	for _, sp := range []float64{m.At800, m.At600} {
		if !(sp >= 1) || math.IsInf(sp, 1) {
			return fmt.Errorf("shard: node speedup %v, want finite and at least 1", sp)
		}
	}
	return nil
}

// Unit is one work item. Key is the hex runcache key of the unit's
// material under Version; the worker recomputes it from the decoded
// material and refuses a mismatch, so a unit can never be computed under
// one identity and cached under another (JSON round-trips float64
// exactly, so the recomputed hash matches bit for bit).
type Unit struct {
	Type    string        `json:"type"`
	Version string        `json:"version"`
	Key     string        `json:"key"`
	Node    *NodeMaterial `json:"node,omitempty"`
	MC      *MCMaterial   `json:"mc,omitempty"`
	HPC     *HPCMaterial  `json:"hpc,omitempty"`
}

// NewNodeUnit builds a node-simulation unit keyed under version. The
// configuration carries no registry (Obs nil). A checked configuration
// (Check true) shares a key only with checked ones, and its payload also
// carries what its run observed (EncodeCheckedNode).
func NewNodeUnit(version string, cfg node.Config, prof workload.Profile) Unit {
	m := &NodeMaterial{Cfg: cfg, Prof: prof}
	return Unit{Type: UnitNode, Version: version, Key: runcache.KeyOf(version, *m).String(), Node: m}
}

// NewMCUnit builds a Monte-Carlo range unit keyed under version.
func NewMCUnit(version string, cfg montecarlo.Config, sel montecarlo.Selection, level string, lo, hi int) Unit {
	m := &MCMaterial{Cfg: cfg, Sel: sel, Level: level, Lo: lo, Hi: hi}
	return Unit{Type: UnitMC, Version: version, Key: runcache.KeyOf(version, *m).String(), MC: m}
}

// NewHPCUnit builds a cluster-simulation unit keyed under version.
func NewHPCUnit(version string, m HPCMaterial) Unit {
	return Unit{Type: UnitHPC, Version: version, Key: runcache.KeyOf(version, m).String(), HPC: &m}
}

// RunKey vets the unit's material (a body of its type, a known MC level,
// a cluster simulation the simulator can run), recomputes the unit's
// content key from it and checks it against the wire Key, so corruption
// or version skew surfaces as an error instead of a wrong cache entry.
func (u Unit) RunKey() (runcache.Key, error) {
	var m any
	switch u.Type {
	case UnitNode:
		if u.Node == nil {
			return runcache.Key{}, fmt.Errorf("shard: node unit without body")
		}
		m = *u.Node
	case UnitMC:
		if u.MC == nil {
			return runcache.Key{}, fmt.Errorf("shard: mc unit without body")
		}
		if u.MC.Level != LevelChannel && u.MC.Level != LevelNode {
			return runcache.Key{}, fmt.Errorf("shard: unknown MC level %q", u.MC.Level)
		}
		m = *u.MC
	case UnitHPC:
		if u.HPC == nil {
			return runcache.Key{}, fmt.Errorf("shard: hpc unit without body")
		}
		if err := u.HPC.validate(); err != nil {
			return runcache.Key{}, err
		}
		m = *u.HPC
	default:
		return runcache.Key{}, fmt.Errorf("shard: unknown unit type %q", u.Type)
	}
	k := runcache.KeyOf(u.Version, m)
	if u.Key != k.String() {
		return runcache.Key{}, fmt.Errorf("shard: unit key mismatch: wire %s, recomputed %s", u.Key, k)
	}
	return k, nil
}

// batchKey is what units must share to run as one batch: a node unit's
// front end, which the batch records once, or a cluster simulation's
// trace, which the batch generates once. It is comparable, so it keys
// parallel.GroupBy.
type batchKey struct {
	frontEnd node.FrontEndKey
	trace    hpc.TraceSpec
}

// batchKey returns the unit's batch key; a Monte-Carlo range has none
// and always forms a batch of its own.
func (u Unit) batchKey() (batchKey, bool) {
	switch {
	case u.Type == UnitNode && u.Node != nil:
		return batchKey{frontEnd: node.FrontEndKeyOf(u.Node.Cfg, u.Node.Prof)}, true
	case u.Type == UnitHPC && u.HPC != nil:
		return batchKey{trace: u.HPC.Trace}, true
	}
	return batchKey{}, false
}

// batches groups units[i], for each i in idx, into the batches they
// travel and execute in.
func batches(units []Unit, idx []int) [][]int {
	return parallel.GroupBy(idx, func(i int) (batchKey, bool) { return units[i].batchKey() })
}

// unitError is a unit the executor refuses: a body that does not match
// its type, a key that does not match its material, or a configuration
// the simulator rejects. Sending the same unit again cannot succeed, so
// the worker answers it with 400.
type unitError struct {
	key string
	err error
}

func (e *unitError) Error() string { return fmt.Sprintf("unit %s: %v", e.key, e.err) }

func (e *unitError) Unwrap() error { return e.err }

// Execute runs units in this process and returns one result per unit,
// in input order, plus the number of front ends it recorded. It is the
// one executor: a worker runs each batch it receives through it, the
// pool runs its local fallbacks through it, and the experiment suite
// runs its units through it when no fleet is configured. Every unit is
// vetted (RunKey) before anything runs, so a malformed or mis-keyed unit
// refuses the whole call with an error naming it. The units are then
// grouped into batches by their batch key (parallel.GroupBy: a node
// cell's front end, a cluster simulation's trace; every Monte-Carlo
// range is a batch of its own) and the batches run on at most workers
// goroutines (parallel.ForEach), each through executeBatch against cache
// (nil = compute only). Once a batch fails, batches not yet started are
// skipped, and the error returned is that of the first batch, in batch
// order, that failed.
func Execute(units []Unit, cache *runcache.Cache, workers int) ([]UnitResult, int, error) {
	keys := make([]runcache.Key, len(units))
	idx := make([]int, len(units))
	for i, u := range units {
		k, err := u.RunKey()
		if err != nil {
			return nil, 0, &unitError{key: u.Key, err: err}
		}
		keys[i], idx[i] = k, i
	}
	groups := batches(units, idx)
	out := make([]UnitResult, len(units))
	recorded := make([]bool, len(groups))
	errs := make([]error, len(groups))
	var failed atomic.Bool
	parallel.ForEach(workers, len(groups), func(g int) {
		if failed.Load() {
			return
		}
		if recorded[g], errs[g] = executeBatch(units, keys, groups[g], cache, workers, out); errs[g] != nil {
			failed.Store(true)
		}
	})
	n := 0
	for g := range groups {
		if errs[g] != nil {
			return nil, 0, errs[g]
		}
		if recorded[g] {
			n++
		}
	}
	return out, n, nil
}

// executeBatch runs one batch of vetted units, units[i] for each i in
// batch, through cache.Do and writes each result to out[i]: a cache hit,
// a payload another caller in this process was computing (both Computed
// false), or a fresh computation that is Put under the unit's own key.
// The node units of a batch share a front end, which is recorded only
// when one of them is computed here, replayed for each such unit in
// order, and dropped with the batch, so no recording outlives it;
// recorded reports whether it was. The cluster simulations of a batch
// share a trace, which is generated only when one of them is computed
// here, and they run on at most workers goroutines. Payloads are the
// exact byte sequences the cache stores (gob — bit-exact float64) and
// equal EncodeNodeResult(node.Run(cfg, prof)) for an unchecked node
// cell, so every process that decodes one reconstructs an identical
// result.
func executeBatch(units []Unit, keys []runcache.Key, batch []int, cache *runcache.Cache, workers int, out []UnitResult) (recorded bool, err error) {
	var rp *node.Replayer
	var trace func() *hpc.Trace
	switch u := units[batch[0]]; u.Type {
	case UnitNode:
		rp = node.NewReplayer(u.Node.Prof)
	case UnitHPC:
		trace = sync.OnceValue(u.HPC.Trace.Generate)
	}
	run := func(i int) (err error) {
		compute := func() ([]byte, error) { return units[i].compute(rp, trace) }
		if cache == nil {
			out[i].Payload, err = compute()
			out[i].Computed = true
			return err
		}
		out[i].Payload, out[i].Computed, err = cache.Do(keys[i], compute)
		return err
	}
	if trace == nil {
		for _, i := range batch {
			if err := run(i); err != nil {
				return false, err
			}
		}
		return rp != nil && rp.Recorded(), nil
	}
	errs := make([]error, len(batch))
	parallel.ForEach(workers, len(batch), func(j int) { errs[j] = run(batch[j]) })
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// compute simulates one vetted unit: a node cell on rp, its batch's
// Replayer, and a cluster simulation on trace(), its batch's trace. A
// checked unit reports to a registry of its own.
func (u Unit) compute(rp *node.Replayer, trace func() *hpc.Trace) ([]byte, error) {
	switch u.Type {
	case UnitNode:
		cfg := u.Node.Cfg
		if cfg.Check {
			cfg.Obs = obs.NewRegistry()
		}
		res, err := rp.Run(cfg)
		if err != nil {
			return nil, &unitError{key: u.Key, err: err}
		}
		if !cfg.Check {
			return EncodeNodeResult(res)
		}
		return EncodeCheckedNode(res, Observed{Metrics: cfg.Obs.Snapshot(), Events: cfg.Obs.Trace()})
	case UnitHPC:
		m := u.HPC
		cluster, model := hpc.NewCluster(m.Nodes), hpc.HeteroDMRModel(m.At800, m.At600)
		if !m.Check {
			return encodeHPC(hpc.Simulate(trace(), cluster, m.Policy, model, m.Seed))
		}
		reg := obs.NewRegistry()
		res, vs := hpc.SimulateObserved(trace(), cluster, m.Policy, model, m.Seed, reg, m.Scope)
		return encodeHPC(res, vs, Observed{Metrics: reg.Snapshot(), Events: reg.Trace()})
	}
	if u.MC.Level == LevelChannel {
		return EncodeMargins(montecarlo.ChannelLevelRange(u.MC.Cfg, u.MC.Sel, u.MC.Lo, u.MC.Hi))
	}
	return EncodeMargins(montecarlo.NodeLevelRange(u.MC.Cfg, u.MC.Sel, u.MC.Lo, u.MC.Hi))
}

// EncodeNodeResult gob-encodes a node result — the same wire format the
// experiments persistent layer stores, so worker payloads and
// coordinator cache entries are interchangeable.
func EncodeNodeResult(res node.Result) ([]byte, error) {
	return encode(res)
}

// DecodeNodeResult is EncodeNodeResult's inverse.
func DecodeNodeResult(payload []byte) (node.Result, error) {
	var res node.Result
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&res)
	return res, err
}

// Observed is what a checked node cell's run recorded: its registry's
// metric snapshot and trace, ready for obs.(*Registry).Merge.
type Observed struct {
	Metrics obs.Metrics
	Events  []obs.Event
}

// EncodeCheckedNode encodes a checked node cell's payload: the bytes of
// EncodeNodeResult(res), which DecodeNodeResult still reads, then ob in
// the same gob stream. A checked entry stored without ob fails
// DecodeCheckedNode, so it is recomputed.
func EncodeCheckedNode(res node.Result, ob Observed) ([]byte, error) {
	return encode(res, ob)
}

// DecodeCheckedNode is EncodeCheckedNode's inverse.
func DecodeCheckedNode(payload []byte) (res node.Result, ob Observed, err error) {
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if err = dec.Decode(&res); err == nil {
		err = dec.Decode(&ob)
	}
	return res, ob, err
}

// encode gob-encodes vals, in order, into one stream (bit-exact float64).
func encode(vals ...any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// encodeHPC encodes a cluster simulation's payload: the five aggregate
// fields of res, without its per-job list, then, for a checked unit, its
// violations and what its run observed, in the same gob stream.
func encodeHPC(res *hpc.Result, checked ...any) ([]byte, error) {
	sum := *res
	sum.Jobs = nil
	return encode(append([]any{sum}, checked...)...)
}

// DecodeHPCResult decodes a cluster simulation's summary: the aggregate
// fields of its hpc.Result, whose Jobs is nil. It reads a checked
// payload's summary too.
func DecodeHPCResult(payload []byte) (hpc.Result, error) {
	var res hpc.Result
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&res)
	return res, err
}

// DecodeCheckedHPC decodes a checked cluster simulation's payload: its
// summary, its violations and what its run observed. An unchecked
// payload fails it, so a checked entry stored without them is
// recomputed.
func DecodeCheckedHPC(payload []byte) (res hpc.Result, vs []obs.Violation, ob Observed, err error) {
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if err = dec.Decode(&res); err == nil {
		if err = dec.Decode(&vs); err == nil {
			err = dec.Decode(&ob)
		}
	}
	return res, vs, ob, err
}

// EncodeMargins gob-encodes a Monte-Carlo margin range.
func EncodeMargins(vals []float64) ([]byte, error) {
	return encode(vals)
}

// DecodeMargins is EncodeMargins's inverse.
func DecodeMargins(payload []byte) ([]float64, error) {
	var vals []float64
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&vals)
	return vals, err
}
