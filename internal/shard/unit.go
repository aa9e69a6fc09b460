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
// under its own key in a shared runcache store. The Pool dispatches with
// bounded in-flight batches per worker, retries/requeues failed batches,
// and commits results positionally so the merged output is
// byte-identical to a sequential run regardless of worker count, batch
// composition or arrival order.
package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/obs"
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

// NodeMaterial is what the run-cache key hashes for a node-simulation
// cell: the fully resolved node configuration plus the workload profile
// the stream generator derives from. internal/experiments hashes this
// exact type for its persistent layer, so a unit computed by a worker
// lands on the same cache entry a sequential coordinator run would
// consult (runcache.Canonical embeds the type name in the hash —
// coordinator and worker must agree on it, which sharing the struct
// guarantees).
type NodeMaterial struct {
	Cfg  node.Config
	Prof workload.Profile
}

// MCMaterial is the hashed identity of a Monte-Carlo range unit: the
// trial configuration (Workers zeroed — the in-process fan-out width
// must never reach a content hash), the selection policy, the level,
// and the shard-aligned trial range.
type MCMaterial struct {
	Cfg   montecarlo.Config
	Sel   montecarlo.Selection
	Level string
	Lo    int
	Hi    int
}

// NodeUnit is the wire body of a node-simulation unit.
type NodeUnit struct {
	Cfg  node.Config      `json:"cfg"`
	Prof workload.Profile `json:"prof"`
}

// MCUnit is the wire body of a Monte-Carlo range unit. Lo must be
// montecarlo.ShardTrials-aligned so the range's draws match the
// sequential run exactly.
type MCUnit struct {
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
	Type    string    `json:"type"`
	Version string    `json:"version"`
	Key     string    `json:"key"`
	Node    *NodeUnit `json:"node,omitempty"`
	MC      *MCUnit   `json:"mc,omitempty"`
}

// NewNodeUnit builds a node-simulation unit keyed under version. The
// configuration must be the uninstrumented resolution (Check false, Obs
// nil): instrumented runs never shard.
func NewNodeUnit(version string, cfg node.Config, prof workload.Profile) Unit {
	k := runcache.KeyOf(version, NodeMaterial{Cfg: cfg, Prof: prof})
	return Unit{
		Type:    UnitNode,
		Version: version,
		Key:     k.String(),
		Node:    &NodeUnit{Cfg: cfg, Prof: prof},
	}
}

// NewMCUnit builds a Monte-Carlo range unit keyed under version.
// cfg.Workers is zeroed before hashing and shipping: the range is
// computed sequentially on the worker, and fan-out width must not
// change a unit's identity.
func NewMCUnit(version string, cfg montecarlo.Config, sel montecarlo.Selection, level string, lo, hi int) Unit {
	cfg.Workers = 0
	k := runcache.KeyOf(version, MCMaterial{Cfg: cfg, Sel: sel, Level: level, Lo: lo, Hi: hi})
	return Unit{
		Type:    UnitMC,
		Version: version,
		Key:     k.String(),
		MC:      &MCUnit{Cfg: cfg, Sel: sel, Level: level, Lo: lo, Hi: hi},
	}
}

// runKey recomputes the unit's content key from its material and checks
// it against the wire Key, so corruption or version skew surfaces as an
// error instead of a wrong cache entry.
func (u Unit) runKey() (runcache.Key, error) {
	var m any
	switch u.Type {
	case UnitNode:
		if u.Node == nil {
			return runcache.Key{}, fmt.Errorf("shard: node unit without body")
		}
		m = NodeMaterial{Cfg: u.Node.Cfg, Prof: u.Node.Prof}
	case UnitMC:
		if u.MC == nil {
			return runcache.Key{}, fmt.Errorf("shard: mc unit without body")
		}
		if u.MC.Cfg.Workers != 0 {
			return runcache.Key{}, fmt.Errorf("shard: mc unit carries Workers=%d; fan-out width must not reach the hash", u.MC.Cfg.Workers)
		}
		if u.MC.Level != LevelChannel && u.MC.Level != LevelNode {
			return runcache.Key{}, fmt.Errorf("shard: unknown MC level %q", u.MC.Level)
		}
		m = MCMaterial{Cfg: u.MC.Cfg, Sel: u.MC.Sel, Level: u.MC.Level, Lo: u.MC.Lo, Hi: u.MC.Hi}
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

// executeBatch runs a batch of units against cache (nil = compute only)
// and returns one result per unit, in order: a cache hit, or a fresh
// computation that is Put under the unit's own key. Node units are
// grouped by front-end identity; a group records its front end only when
// one of its cells misses the cache, replays it for each missing cell,
// and drops it before the next group, so no recording outlives the batch.
// recordings counts the front ends recorded. Payloads are the exact byte
// sequences the cache stores (gob — bit-exact float64) and equal
// EncodeNodeResult(node.Run(cfg, prof)) for a node cell, so every process
// that decodes one reconstructs an identical result.
func executeBatch(units []Unit, cache *runcache.Cache, recordings *obs.Counter) ([]UnitResult, error) {
	keys := make([]runcache.Key, len(units))
	for i, u := range units {
		k, err := u.runKey()
		if err != nil {
			return nil, &unitError{key: u.Key, err: err}
		}
		keys[i] = k
	}
	idx := make([]int, len(units))
	for i := range idx {
		idx[i] = i
	}
	out := make([]UnitResult, len(units))
	for _, g := range node.GroupByFrontEnd(idx, func(i int) (node.FrontEndKey, bool) { return units[i].frontEnd() }) {
		var rp *node.Replayer
		if u := units[g[0]]; u.Type == UnitNode {
			rp = node.NewReplayer(u.Node.Prof)
		}
		for _, i := range g {
			if cache != nil {
				if p, ok := cache.Get(keys[i]); ok {
					out[i].Payload = p
					continue
				}
			}
			payload, err := units[i].compute(rp)
			if err != nil {
				return nil, err
			}
			if cache != nil {
				// Put failures are counted by the store; the unit stays
				// uncached but correct.
				_ = cache.Put(keys[i], payload)
			}
			out[i] = UnitResult{Computed: true, Payload: payload}
		}
		if rp != nil && rp.Recorded() {
			recordings.Add(1)
		}
	}
	return out, nil
}

// compute simulates one vetted unit; rp is the Replayer of a node unit's
// front-end group.
func (u Unit) compute(rp *node.Replayer) ([]byte, error) {
	if u.Type == UnitNode {
		res, err := rp.Run(u.Node.Cfg)
		if err != nil {
			return nil, &unitError{key: u.Key, err: err}
		}
		return EncodeNodeResult(res)
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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeNodeResult is EncodeNodeResult's inverse.
func DecodeNodeResult(payload []byte) (node.Result, error) {
	var res node.Result
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&res)
	return res, err
}

// EncodeMargins gob-encodes a Monte-Carlo margin range (bit-exact
// float64).
func EncodeMargins(vals []float64) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vals); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeMargins is EncodeMargins's inverse.
func DecodeMargins(payload []byte) ([]float64, error) {
	var vals []float64
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&vals)
	return vals, err
}
