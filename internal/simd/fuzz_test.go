package simd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec fuzzes the job-spec boundary the way POST /v1/jobs decodes
// it: normalize either rejects the spec or returns one that normalizes
// to itself under the same job id, so every spelling of a job names one
// id. No job is submitted.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"experiments":["fig12","fig13"],"seed":3,"quick":true}`))
	f.Add([]byte(`{"experiments":[],"seeds":-2,"check":true}`))
	f.Add([]byte(`{"experiments":["fig99"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seeds":65}`))

	s := New(Config{CacheVersion: "fuzz-v1"})
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		once, err := spec.normalize()
		if err != nil {
			return
		}
		twice, err := once.normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on a second pass: %v", once, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("normalize is not idempotent: %+v then %+v", once, twice)
		}
		if a, b := s.JobID(once), s.JobID(twice); a != b {
			t.Fatalf("one normalized spec has two job ids: %s and %s", a, b)
		}
	})
}
