package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dramspec"
	"repro/internal/hpc"
	"repro/internal/memctrl"
	"repro/internal/memuse"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/workload"
)

// FuzzWorkerBatch fuzzes the worker's batch endpoint with raw request
// bodies. The worker must never panic, must answer only 200, 400, 409 or
// 413, and a 200 must answer exactly the units sent, in order. The seeds
// are one valid single-range Monte-Carlo batch, a version-skewed copy, a
// truncated copy, a correctly keyed node unit whose replication no
// channel implements, and a correctly keyed cluster simulation on a
// trace of 16 nodes. The worker refuses each of the last two before
// recording a front end or generating a trace, and a mutation of either
// keeps the bad field, breaks the key or fails an earlier check, so no
// input runs a node or cluster simulation.
func FuzzWorkerBatch(f *testing.F) {
	cfg := mcConfig()
	cfg.Trials = montecarlo.ShardTrials
	u := NewMCUnit(testVersion, cfg, montecarlo.MarginAware, LevelChannel, 0, montecarlo.ShardTrials)
	valid, err := json.Marshal(batchRequest{Key: u.Key, Units: []Unit{u}})
	if err != nil {
		f.Fatal(err)
	}
	skewed := u
	skewed.Version += "+skew"
	skewedBody, err := json.Marshal(batchRequest{Key: u.Key, Units: []Unit{skewed}})
	if err != nil {
		f.Fatal(err)
	}
	badNode := NewNodeUnit(testVersion, node.Config{
		H:           node.Hierarchy1(),
		Replication: memctrl.Replication(9),
		Spec:        dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
		Seed:        1,
	}, workload.ByName("hpcg"))
	badNodeBody, err := json.Marshal(batchRequest{Key: badNode.Key, Units: []Unit{badNode}})
	if err != nil {
		f.Fatal(err)
	}
	badHPC := NewHPCUnit(testVersion, HPCMaterial{
		Trace:  hpc.TraceSpec{Jobs: 100, Nodes: 16, PeriodS: 1e5, TargetUtil: 0.5, Usage: memuse.GeneratorConfig{Jobs: 100, Seed: 1}, Seed: 1},
		Nodes:  map[int]int{0: 16},
		Policy: hpc.PolicyDefault,
		At800:  1,
		At600:  1,
		Seed:   1,
	})
	badHPCBody, err := json.Marshal(batchRequest{Key: badHPC.Key, Units: []Unit{badHPC}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(skewedBody)
	f.Add(valid[:len(valid)/2])
	f.Add(badNodeBody)
	f.Add(badHPCBody)

	h := NewWorker(testVersion, nil, nil).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, batchPath, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("worker answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		var sent batchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sent); err != nil {
			t.Fatalf("worker accepted a body that does not decode: %v", err)
		}
		var reply batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("undecodable 200 reply: %v", err)
		}
		if reply.Key != sent.Key || len(reply.Results) != len(sent.Units) {
			t.Fatalf("batch %s of %d units answered as %s with %d results",
				sent.Key, len(sent.Units), reply.Key, len(reply.Results))
		}
		for i, r := range reply.Results {
			if r.Key != sent.Units[i].Key {
				t.Fatalf("slot %d answered key %s for unit %s", i, r.Key, sent.Units[i].Key)
			}
		}
	})
}
