// Package shard is the coordinator/worker execution layer: it fans the
// experiment matrix out across processes. Work units are the same cells
// the in-process engine runs — positional-seeded node simulations and
// Monte-Carlo shard ranges — identified by their content hash in the
// persistent run-cache keyspace (internal/runcache), so a unit's
// identity, its cache entry, and its wire name are one and the same
// value. Units travel in batches: the coordinator's Pool sends the node
// cells of one front-end identity (node.FrontEndKeyOf) as one batch and
// every Monte-Carlo range as a batch of one, over a small HTTP/JSON
// protocol (POST /shard/v1/batch). A worker records each front end once
// and replays it for every design in the batch, then Puts every cell
// under its own key in a shared runcache store. The Pool bounds dispatch
// with one channel of slot tokens, InFlight per worker: a batch holds a
// token while it posts to that worker or executes locally in its stead,
// retries a failed dispatch on whichever worker frees a token next, and
// commits results positionally so the merged output is byte-identical
// to a sequential run regardless of worker count, batch composition or
// arrival order.
package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"

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

// RunKey recomputes the unit's content key from its material and checks
// it against the wire Key, so corruption or version skew surfaces as an
// error instead of a wrong cache entry.
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
	default:
		return runcache.Key{}, fmt.Errorf("shard: unknown unit type %q", u.Type)
	}
	k := runcache.KeyOf(u.Version, m)
	if u.Key != k.String() {
		return runcache.Key{}, fmt.Errorf("shard: unit key mismatch: wire %s, recomputed %s", u.Key, k)
	}
	return k, nil
}

// frontEnd returns a node unit's front-end identity; other units have
// none and always form a batch of their own.
func (u Unit) frontEnd() (node.FrontEndKey, bool) {
	if u.Type != UnitNode || u.Node == nil {
		return node.FrontEndKey{}, false
	}
	return node.FrontEndKeyOf(u.Node.Cfg, u.Node.Prof), true
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
// runs its cell plan through it when no fleet is configured. Every key
// is vetted before anything runs, so a mis-keyed unit refuses the whole
// call. The units are then grouped by front-end identity
// (node.GroupByFrontEnd; every Monte-Carlo range is a group of its own)
// and the groups run on at most workers goroutines (parallel.ForEach),
// each through executeBatch against cache (nil = compute only). Once a
// group fails, groups not yet started are skipped, and the error
// returned is that of the first group, in group order, that failed.
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
	groups := node.GroupByFrontEnd(idx, func(i int) (node.FrontEndKey, bool) { return units[i].frontEnd() })
	out := make([]UnitResult, len(units))
	recorded := make([]bool, len(groups))
	errs := make([]error, len(groups))
	var failed atomic.Bool
	parallel.ForEach(workers, len(groups), func(g int) {
		if failed.Load() {
			return
		}
		if recorded[g], errs[g] = executeBatch(units, keys, groups[g], cache, out); errs[g] != nil {
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

// executeBatch runs one group of vetted units, units[i] for each i in
// group, through cache.Do and writes each result to out[i]: a cache hit,
// a payload another caller in this process was computing (both Computed
// false), or a fresh computation that is Put under the unit's own key.
// The node units of a group share a front end, which is recorded only
// when one of them is computed here, replayed for each such unit, and
// dropped with the group, so no recording outlives it; recorded reports
// whether it was. Payloads are the exact byte sequences the cache stores
// (gob — bit-exact float64) and equal EncodeNodeResult(node.Run(cfg,
// prof)) for an unchecked node cell, so every process that decodes one
// reconstructs an identical result.
func executeBatch(units []Unit, keys []runcache.Key, group []int, cache *runcache.Cache, out []UnitResult) (recorded bool, err error) {
	var rp *node.Replayer
	if u := units[group[0]]; u.Type == UnitNode {
		rp = node.NewReplayer(u.Node.Prof)
	}
	for _, i := range group {
		compute := func() ([]byte, error) { return units[i].compute(rp) }
		if cache != nil {
			out[i].Payload, out[i].Computed, err = cache.Do(keys[i], compute)
		} else {
			out[i].Payload, err = compute()
			out[i].Computed = true
		}
		if err != nil {
			return false, err
		}
	}
	return rp != nil && rp.Recorded(), nil
}

// compute simulates one vetted unit; rp is the Replayer of a node unit's
// front-end group. A checked node unit reports to a registry of its own.
func (u Unit) compute(rp *node.Replayer) ([]byte, error) {
	if u.Type == UnitNode {
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
