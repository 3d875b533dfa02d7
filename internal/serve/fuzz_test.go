package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzServePut drives PUT /v1/data/{key} with arbitrary keys and bodies
// against one single-node stack per fuzz process, calling the handler
// directly. The handler never panics; while the loop is up a PUT
// answers 204, 400 or a mux redirect, never 5xx; and a 204 for a body
// without a ttl reads back with GET on the same path as 200 and a
// JSON-equal value.
func FuzzServePut(f *testing.F) {
	f.Add("room1/temp", `{"value": 21.5, "topic": "climate", "ttl": "1m"}`)
	for _, body := range badPutBodies {
		f.Add("k", body)
	}
	for _, key := range []string{"", "a/../b", "%zz", "room1/temp"} {
		f.Add(key, `{"value": 1}`)
	}

	ts := newTestStack(f)
	srv := NewServer(Config{Loop: ts.node, Store: ts.store, Members: ts.members, Now: ts.node.Now})
	ts.start()
	f.Cleanup(ts.node.Close)
	h := srv.Handler()

	// serve sends one request to the handler, with the path set after
	// construction so a fuzzed key reaches the mux unparsed.
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, "/", strings.NewReader(body))
		req.URL.Path = path
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	f.Fuzz(func(t *testing.T, key, body string) {
		path := "/v1/data/" + key
		put := serve(http.MethodPut, path, body)
		switch code := put.Code; {
		case code == http.StatusBadRequest, code >= 300 && code < 400:
			return
		case code != http.StatusNoContent:
			t.Fatalf("PUT %q %q = %d %s, want 204, 400 or 3xx", path, body, code, put.Body)
		}
		// Decode the body as the handler does: first JSON value only.
		var sent putBody
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&sent); err != nil {
			t.Fatalf("PUT %q accepted a body that does not decode: %v", body, err)
		}
		if sent.TTL != "" {
			return
		}
		get := serve(http.MethodGet, path, "")
		var view struct{ Value any }
		if get.Code != http.StatusOK || json.Unmarshal(get.Body.Bytes(), &view) != nil {
			t.Fatalf("GET %q after a 204 PUT = %d %s, want 200", path, get.Code, get.Body)
		}
		if !reflect.DeepEqual(view.Value, sent.Value) {
			t.Fatalf("GET %q value = %#v, PUT sent %#v", path, view.Value, sent.Value)
		}
	})
}
