package store_test

import (
	"testing"

	"repro/internal/store"
)

// TestRemoteTelemetryCounts pins the remote store's round-trip accounting:
// every wire operation counts a request, misses are requests (not errors),
// and transport failures are errors.
func TestRemoteTelemetryCounts(t *testing.T) {
	rem, _ := remotePair(t)

	if err := rem.Put("cafe01", "profile", "some/key", []byte(`{}`)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, ok := rem.Get("cafe01", "profile", "some/key"); !ok {
		t.Fatal("get: want hit")
	}
	if _, ok := rem.Get("beef02", "profile", "k"); ok {
		t.Fatal("get of absent digest: want miss")
	}
	rem.Has("cafe01", "profile", "some/key")

	st := rem.Stats()
	if st.Requests["put"] != 1 || st.Requests["get"] != 2 || st.Requests["has"] != 1 {
		t.Fatalf("request counts = %+v", st.Requests)
	}
	if len(st.Errors) != 0 {
		t.Fatalf("healthy round-trips counted errors: %+v", st.Errors)
	}
	reqs, errs := st.Total()
	if reqs != 4 || errs != 0 {
		t.Fatalf("Total() = %d, %d; want 4, 0", reqs, errs)
	}

	// A dead endpoint: transport failures are errors.
	dead, err := store.OpenRemote("http://127.0.0.1:1/api/v1/store", "")
	if err != nil {
		t.Fatalf("open dead remote: %v", err)
	}
	if _, ok := dead.Get("cafe01", "profile", "k"); ok {
		t.Fatal("dead remote get: want miss")
	}
	dst := dead.Stats()
	if dst.Requests["get"] != 1 || dst.Errors["get"] != 1 {
		t.Fatalf("dead remote stats = %+v", dst)
	}

}
