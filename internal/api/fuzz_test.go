package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
)

// FuzzAPIRequests feeds arbitrary bytes to the three handlers that decode
// a JSON body off the socket — POST /v1/jobs, POST /v1/jobs/{id}/scale and
// POST /v1/cluster/fail — over a live service on four devices. Whatever
// arrives, the handler answers 2xx or 4xx: never a 5xx (the decision
// plane faulted and is wedged) and never a panic (the model constructors
// panic on dimensions that make no catalog; ModelSpec.Build has to have
// refused them first). A body the strict decoder does not take, or whose
// model does not build, is answered 400 without a single command having
// reached the decision plane. Requests that do pass run for real: the
// tenant's quota (4 devices, 4 queued jobs) and ModelSpec's state cap are
// what bound the work and the memory a corpus can ask for.
func FuzzAPIRequests(f *testing.F) {
	for _, seed := range []struct {
		ep   uint8
		body string
	}{
		{0, `{"name":"a","model":{"preset":"gpt-tiny"},"gpus":1,"duration_min":5}`},
		{0, `{"model":{"kind":"gpt","layers":4,"hidden":128,"heads":4,"vocab":512,"seq_len":32},"gpus":2,"min_gpus":2,"max_gpus":4,"duration_min":0.02}`},
		{0, `{"model":{"kind":"moe","layers":2,"hidden":16,"experts":4},"gpus":1,"duration_min":1,"priority":3}`},
		{0, `{"model":{"kind":"bert","layers":1,"hidden":8,"heads":2,"vocab":16,"seq_len":4},"gpus":1,"duration_min":1e300}`},
		{0, `{"model":{"kind":"gpt","layers":0,"hidden":16,"heads":0,"vocab":-1,"seq_len":8},"gpus":1,"duration_min":1}`},
		{0, `{"model":{"kind":"gpt","layers":128,"hidden":8192,"heads":1,"vocab":262144,"seq_len":65536},"gpus":1,"duration_min":1}`},
		{0, `{"model":{"preset":"gpt-tiny"},"gpus":9223372036854775807,"max_gpus":-5,"duration_min":1}`},
		{0, `{"model":{"preset":"gpt-tiny"},"gpus":1,"duration_min":1,"unknown":true}`},
		{0, `{"name":"../x","model":{"preset":"nope"},"gpus":1,"duration_min":1}`},
		{0, `[[[[[[[[[[[[[[[[`},
		{0, ``},
		{1, `{"gpus":2}`},
		{1, `{"gpus":-1}`},
		{1, `{"gpus":1e99}`},
		{2, `{"device":3}`},
		{2, `{"device":-7}`},
		{2, `{"device":"0"}`},
	} {
		f.Add(seed.ep, []byte(seed.body))
	}

	svc, err := coordinator.StartService(cluster.Cloud(4), coordinator.Options{WallScale: time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(Config{Service: svc, Tenants: []Tenant{{Name: "fz", Token: "tok", MaxDevices: 4, MaxQueuedJobs: 4}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		srv.Close()
		svc.Stop()
	})
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer tok")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	// The job the scale requests aim at, and the watcher's subscription:
	// the two commands that land without a request of the fuzzer's.
	if rec := post("/v1/jobs", []byte(`{"name":"base","model":{"preset":"gpt-tiny"},"gpus":1,"max_gpus":2,"duration_min":1e9}`)); rec.Code != http.StatusCreated {
		f.Fatalf("base job: %d %s", rec.Code, rec.Body)
	}
	for deadline := time.Now().Add(5 * time.Second); svc.CommandCount() < 3; {
		if time.Now().After(deadline) {
			f.Fatal("the API server's timeline watcher never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	// The body cap: one byte over it is refused at the boundary, however
	// well-formed the JSON it starts.
	before := svc.CommandCount()
	big := append(bytes.Repeat([]byte(" "), 1<<20), `{"gpus":2}`...)
	if rec := post("/v1/jobs/fz-base/scale", big); rec.Code != http.StatusBadRequest || svc.CommandCount() != before {
		f.Fatalf("a body over the 1 MiB cap: %d %s, %d commands", rec.Code, rec.Body, svc.CommandCount()-before)
	}

	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path, into := "/v1/jobs", any(new(SubmitRequest))
		switch ep % 3 {
		case 1:
			path, into = "/v1/jobs/fz-base/scale", new(ScaleRequest)
		case 2:
			path, into = "/v1/cluster/fail", new(FailRequest)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		refused := dec.Decode(into) != nil
		if sub, ok := into.(*SubmitRequest); ok && !refused {
			_, err := sub.Model.Build()
			refused = err != nil
		}

		before := svc.CommandCount()
		rec := post(path, body)
		if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("POST %s %q: %d %s", path, body, rec.Code, rec.Body)
		}
		if refused && (rec.Code != http.StatusBadRequest || svc.CommandCount() != before) {
			t.Fatalf("POST %s %q does not decode, and was answered %d after %d commands on the decision plane: %s",
				path, body, rec.Code, svc.CommandCount()-before, rec.Body)
		}
		if rec.Code >= 400 && !strings.Contains(rec.Body.String(), `"error"`) {
			t.Fatalf("POST %s %q: %d without an error body: %s", path, body, rec.Code, rec.Body)
		}
	})
}
