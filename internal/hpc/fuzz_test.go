package hpc

import (
	"bytes"
	"testing"
)

// FuzzReadTrace fuzzes the cluster-trace decoder: ReadTrace either
// rejects the bytes or returns a trace that Write, ReadTrace and Write
// again reproduce byte for byte, so whatever it accepts survives its own
// round trip unchanged.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(`{"total_nodes":4,"period_s":100,"jobs":[{"id":1,"submit_s":0,"nodes":2,"base_s":30,"bucket":1},{"id":2,"submit_s":5.5,"nodes":4,"base_s":1e3,"bucket":2}]}`))
	f.Add([]byte(`{"total_nodes":4,"period_s":10,"jobs":[]}`))
	f.Add([]byte(`{"total_nodes":1,"period_s":1,"jobs":[{"id":-3,"submit_s":-0,"nodes":1,"base_s":0.5,"bucket":0}]} trailing`))
	f.Add([]byte(`{nope`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := tr.Write(&first); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		again, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace rejects its own Write output: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trace round trip drifted:\n first: %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
