package jobserver

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobRequest feeds arbitrary bytes to the POST /jobs body decoder (JSON
// decode, then validate). Every input must end in an error, or in a
// request that a second validate leaves unchanged and whose fleet
// reservation is 1 to 64 slots; none may panic. The seeds are the requests
// the handler and scheduler tests submit, valid and invalid, and
// malformed JSON.
func FuzzJobRequest(f *testing.F) {
	seeds := [][]JobRequest{soakRequests, invalidRequests, invalidElasticRequests, {
		{Algorithm: "bc", Graph: "sd", Workers: 4, Roots: 10, Partitioner: "metis", Swath: "adaptive", Initiate: "dynamic"},
		{Algorithm: "bc", Graph: "sd", Workers: 2, ElasticHigh: 5, ElasticThreshold: 0.3, Model: "subgraph"},
		{Algorithm: "sssp", Graph: "sd", Model: "giraffe"},
		{Algorithm: "apsp", Graph: "sd", Workers: 64, MemoryMiB: 512, Priority: 10},
	}}
	for _, reqs := range seeds {
		for _, req := range reqs {
			body, err := json.Marshal(req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{"algorithm":"wcc","graph":"sd","workers":-3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		again := req
		if err := validate(&again); err != nil {
			t.Fatalf("accepted request %+v fails a second validate: %v", req, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("a second validate changed %+v to %+v", req, again)
		}
		if n := slotsNeeded(&req); n < 1 || n > 64 {
			t.Fatalf("accepted request %+v reserves %d slots, want 1 to 64", req, n)
		}
	})
}
