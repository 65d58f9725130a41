package explore

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/generate"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// TestClusterJobNamesItsShard pins what a queued job holds: its dispatch
// digest and its shard, nothing of the work. For a pair, an exploration
// (the 48-point calibration sweep) and a generation dispatch, every
// pending job file's keys are exactly "workload" and "dispatch", plus
// "genIndex" for a generate point past the first (index 0 is omitted);
// the done result embeds the same job; and a calibration-sweep job file
// stays small, since the grid and the machines live once, in the
// manifest's spec.
func TestClusterJobNamesItsShard(t *testing.T) {
	ctx := context.Background()
	sw, err := Calibration().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]cluster.Spec{
		"pair": {Suite: "tiny", Workloads: []string{"crc32/small", "sha/small"},
			ISAs: []string{"amd64v", "x86v"}, Levels: []int{0, 2}, Seed: 1},
		"explore":  sw.ClusterSpec(1),
		"generate": {Suite: "tiny", Seed: 1, Generate: &generate.Spec{N: 2, Seed: 3, Suite: "tiny"}},
	}
	for name, spec := range specs {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		q, err := cluster.OpenQueue(st)
		if err != nil {
			t.Fatal(err)
		}
		p := pipeline.New(pipeline.Options{Workers: 1, Seed: spec.Seed, Store: st})
		out, err := cluster.Dispatch(ctx, q, p, spec, cluster.DispatchOptions{})
		if err != nil {
			t.Fatalf("%s: dispatch: %v", name, err)
		}
		if out.Enqueued != len(spec.Jobs()) {
			t.Fatalf("%s: dispatch outcome %+v, want every job enqueued", name, out)
		}
		infos, err := st.List("cluster/pending")
		if err != nil || len(infos) != out.Enqueued {
			t.Fatalf("%s: %d pending files (%v), want %d", name, len(infos), err, out.Enqueued)
		}
		for _, fi := range infos {
			data, err := st.ReadFile("cluster/pending/" + fi.Name)
			if err != nil {
				t.Fatal(err)
			}
			var j cluster.Job
			if err := json.Unmarshal(data, &j); err != nil {
				t.Fatal(err)
			}
			want := []string{"dispatch", "workload"}
			if j.GenIndex != 0 {
				want = []string{"dispatch", "genIndex", "workload"}
			}
			if got := jsonKeys(t, data); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: job %s has keys %v, want %v", name, j.Workload, got, want)
			}
			if j.Dispatch != spec.Digest() {
				t.Errorf("%s: job %s names dispatch %s, want %s", name, j.Workload, j.Dispatch, spec.Digest())
			}
			if name == "explore" && len(data) >= 200 {
				t.Errorf("calibration-sweep job file is %d bytes, want under 200", len(data))
			}
		}

		lease, err := q.Claim("w1")
		if err != nil || lease == nil {
			t.Fatalf("%s: claim: %v, %v", name, lease, err)
		}
		if err := lease.Ack(cluster.Result{Job: lease.Job, Worker: "w1"}); err != nil {
			t.Fatal(err)
		}
		data, err := st.ReadFile("cluster/done/" + lease.Job.ID() + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Job cluster.Job `json:"job"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Job, lease.Job) {
			t.Errorf("%s: done result embeds %+v, want the claimed job %+v", name, res.Job, lease.Job)
		}
	}
}

// jsonKeys returns the sorted top-level keys of a JSON object.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
