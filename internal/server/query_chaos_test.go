// Chaos drills for the sharded query service (run by `make
// query-chaos-test` under -race). Each drill injects a failure through
// internal/faults — a killed shard, a reload racing an in-flight
// query, a torn, corrupted or oversized snapshot on disk — and checks
// the degraded answers against a serial single-shard oracle: the
// surviving shards' results must match, element for element, what a
// healthy one-shard server would answer over only the surviving
// documents. No drill sleeps;
// stalls are channel gates and ordering is enforced by the gates, not
// the scheduler.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"recipemodel/internal/faults"
	"recipemodel/internal/resilience"
	"recipemodel/internal/snapshot"
)

// chaosQuery runs one query and decodes its envelope.
func chaosQuery(t *testing.T, s *Server, path, body string) (envelope, int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return envelope{}, w.Code
	}
	return decodeEnvelope(t, w.Body), w.Code
}

// firstSegment returns the file name of version's first segment, as
// the version's MANIFEST.json in the snapshot store at dir records it.
func firstSegment(t *testing.T, dir, version string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "snapshots", version, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Segments []struct {
			Name string `json:"name"`
		} `json:"segments"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) == 0 {
		t.Fatalf("%s lists no segments", version)
	}
	return man.Segments[0].Name
}

// TestQueryChaosShardKill is the headline acceptance drill: shard k of
// N is killed mid-query; every query still completes with 200 and
// degraded:true, and the served results are identical to the serial
// oracle restricted to the surviving documents.
func TestQueryChaosShardKill(t *testing.T) {
	const docs, shards, killed = 24, 4, 2
	s := queryServer(shards, docs)
	oracle := queryServer(1, docs)
	defer faults.Enable(FaultQueryShard, faults.Fault{
		Err:     errors.New("injected shard kill"),
		Indices: []int{killed},
	})()
	survives := func(id int) bool { return id%shards != killed }

	// /query/similar for a spread of query docs — including docs owned
	// by the killed shard, which must still be rankable (the query
	// model comes from the snapshot, not from its shard).
	for id := 0; id < docs; id += 5 {
		body := `{"id": ` + strconv.Itoa(id) + `, "k": 6}`
		env, code := chaosQuery(t, s, "/query/similar", body)
		if code != http.StatusOK {
			t.Fatalf("similar id=%d: status %d", id, code)
		}
		if !env.Degraded || env.ShardsServed != shards-1 || len(env.FailedShards) != 1 || env.FailedShards[0] != killed {
			t.Fatalf("similar id=%d envelope %+v", id, env)
		}
		var got []similarHit
		if err := json.Unmarshal(env.Results, &got); err != nil {
			t.Fatal(err)
		}
		// Oracle: the full serial ranking, filtered to survivors, then
		// truncated to k. Filter-then-truncate equals the degraded
		// ranking exactly because both use one deterministic total order.
		fullEnv, _ := chaosQuery(t, oracle, "/query/similar", `{"id": `+strconv.Itoa(id)+`, "k": `+strconv.Itoa(docs)+`}`)
		var full []similarHit
		if err := json.Unmarshal(fullEnv.Results, &full); err != nil {
			t.Fatal(err)
		}
		want := make([]similarHit, 0, 6)
		for _, h := range full {
			if survives(h.ID) && len(want) < 6 {
				want = append(want, h)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("similar id=%d degraded results diverge from oracle:\n  got  %+v\n  want %+v", id, got, want)
		}
	}

	// /query/search: degraded hits = oracle hits minus the killed
	// shard's documents.
	for _, body := range []string{`{"processes": ["fry"]}`, `{"ingredients": ["onion"]}`, `{"cuisine": "thai"}`} {
		env, code := chaosQuery(t, s, "/query/search", body)
		if code != http.StatusOK || !env.Degraded {
			t.Fatalf("search %s: status %d envelope %+v", body, code, env)
		}
		var got, full []searchHit
		if err := json.Unmarshal(env.Results, &got); err != nil {
			t.Fatal(err)
		}
		oEnv, _ := chaosQuery(t, oracle, "/query/search", body)
		if err := json.Unmarshal(oEnv.Results, &full); err != nil {
			t.Fatal(err)
		}
		want := make([]searchHit, 0, len(full))
		for _, h := range full {
			if survives(h.ID) {
				want = append(want, h)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("search %s diverges from oracle:\n  got  %+v\n  want %+v", body, got, want)
		}
	}

	// /query/nutrition: rows for the killed shard's ids are absent,
	// surviving rows identical to the oracle's.
	env, code := chaosQuery(t, s, "/query/nutrition", `{"ids": [0,1,2,3,10,14,22]}`)
	if code != http.StatusOK || !env.Degraded {
		t.Fatalf("nutrition: status %d envelope %+v", code, env)
	}
	var got, full []nutritionItem
	if err := json.Unmarshal(env.Results, &got); err != nil {
		t.Fatal(err)
	}
	oEnv, _ := chaosQuery(t, oracle, "/query/nutrition", `{"ids": [0,1,2,3,10,14,22]}`)
	if err := json.Unmarshal(oEnv.Results, &full); err != nil {
		t.Fatal(err)
	}
	want := make([]nutritionItem, 0, len(full))
	for _, it := range full {
		if survives(it.ID) {
			want = append(want, it)
		}
	}
	if len(want) == len(full) {
		t.Fatal("drill is vacuous: no requested id was owned by the killed shard")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nutrition diverges from oracle:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestQueryChaosReloadMidQuery: a snapshot hot-swap lands while a
// query is suspended inside a shard. The in-flight query must finish
// on the snapshot it started on; the next query serves the new one.
func TestQueryChaosReloadMidQuery(t *testing.T) {
	s := NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot: querySnapshot("v000001", 8),
		CorpusShards:   2,
		CorpusLoader:   func() (*snapshot.Snapshot, error) { return querySnapshot("v000002", 10), nil },
	})
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	defer faults.Enable(FaultQueryShard, faults.Fault{
		Indices: []int{0},
		OnHit:   func(int) { entered <- struct{}{}; <-gate },
	})()

	type answer struct {
		env  envelope
		code int
	}
	done := make(chan answer, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/query/similar", strings.NewReader(`{"id": 1, "k": 4}`))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		var env envelope
		if w.Code == http.StatusOK {
			_ = json.Unmarshal(w.Body.Bytes(), &env)
		}
		done <- answer{env, w.Code}
	}()

	<-entered // the query is inside shard 0, pinned to v000001
	if v, err := s.ReloadCorpus(); err != nil || v != "v000002" {
		t.Fatalf("reload under in-flight query: %q, %v", v, err)
	}
	close(gate)
	ans := <-done
	if ans.code != http.StatusOK {
		t.Fatalf("in-flight query: status %d", ans.code)
	}
	if ans.env.Snapshot != "v000001" || ans.env.Degraded {
		t.Fatalf("in-flight query not pinned to its snapshot: %+v", ans.env)
	}
	env, _ := chaosQuery(t, s, "/query/similar", `{"id": 1, "k": 4}`)
	if env.Snapshot != "v000002" || env.ShardsTotal != 2 || env.Degraded {
		t.Fatalf("post-reload query: %+v", env)
	}
}

// TestQueryChaosTornSnapshot: the server boots from a real on-disk
// store; a torn publish is rejected at reload with a named-file,
// expected-vs-found digest error while the previous version keeps
// serving — and LoadLatestGood recovers it for a fresh boot. The
// serving version corrupted in place, and a publish whose segment is
// a sparse terabyte, are rejected the same way.
func TestQueryChaosTornSnapshot(t *testing.T) {
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Backoff = resilience.Backoff{Sleep: func(time.Duration) {}}
	if _, err := st.Build(queryCorpusModels(10)); err != nil {
		t.Fatal(err)
	}
	boot, err := st.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot: boot,
		CorpusShards:   3,
		CorpusLoader:   func() (*snapshot.Snapshot, error) { return st.Load(context.Background()) },
	})

	// A new version is published, then torn on disk (crash mid-copy,
	// bit rot — the manifest no longer matches the bytes).
	v2, err := st.Build(queryCorpusModels(14))
	if err != nil {
		t.Fatal(err)
	}
	segName := firstSegment(t, st.Dir(), v2)
	seg := filepath.Join(st.Dir(), "snapshots", v2, segName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/admin/reload/corpus", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("torn snapshot reload: status %d: %s", w.Code, w.Body.String())
	}
	if msg := w.Body.String(); !strings.Contains(msg, segName) || !strings.Contains(msg, "manifest expects") {
		t.Fatalf("rejection does not name the torn file: %s", msg)
	}
	env, code := chaosQuery(t, s, "/query/similar", `{"id": 0, "k": 3}`)
	if code != http.StatusOK || env.Snapshot != "v000001" || env.Degraded {
		t.Fatalf("previous version not serving after torn publish: status %d, %+v", code, env)
	}

	// A fresh boot through LoadLatestGood rolls back to v000001 and
	// reports why v000002 was rejected.
	snap, rejected, err := st.LoadLatestGood(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != "v000001" || len(rejected) != 1 || !strings.Contains(rejected[0].Error(), v2) {
		t.Fatalf("LoadLatestGood: %q, rejected %v", snap.Version, rejected)
	}

	// The serving version itself is corrupted in place, after the store
	// has loaded and remembered it. A reload must re-hash its bytes and
	// refuse them, whatever the store remembers about that version.
	if err := st.SetCurrent("v000001"); err != nil {
		t.Fatal(err)
	}
	seg1Name := firstSegment(t, st.Dir(), "v000001")
	seg1 := filepath.Join(st.Dir(), "snapshots", "v000001", seg1Name)
	data1, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data1[len(data1)/2] ^= 0xff
	if err := os.WriteFile(seg1, data1, 0o644); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/reload/corpus", nil))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("serving version corrupted in place: reload status %d: %s", w.Code, w.Body.String())
	}
	if msg := w.Body.String(); !strings.Contains(msg, filepath.Join("v000001", seg1Name)) || !strings.Contains(msg, "manifest expects sha256") {
		t.Fatalf("rejection does not name the corrupted file: %s", msg)
	}
	env, code = chaosQuery(t, s, "/query/similar", `{"id": 0, "k": 3}`)
	if code != http.StatusOK || env.Snapshot != "v000001" || env.Degraded {
		t.Fatalf("old corpus not serving after in-place corruption: status %d, %+v", code, env)
	}

	// A new version whose segment was extended to a sparse terabyte is
	// refused from its size alone: reading it whole would exhaust memory
	// and kill the process.
	v3, err := st.Build(queryCorpusModels(16))
	if err != nil {
		t.Fatal(err)
	}
	seg3Name := firstSegment(t, st.Dir(), v3)
	if err := os.Truncate(filepath.Join(st.Dir(), "snapshots", v3, seg3Name), 1<<40); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/reload/corpus", nil))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized segment: reload status %d: %s", w.Code, w.Body.String())
	}
	if msg := w.Body.String(); !strings.Contains(msg, filepath.Join(v3, seg3Name)) || !strings.Contains(msg, "size 1099511627776 bytes, manifest expects") {
		t.Fatalf("rejection does not name the oversized file: %s", msg)
	}
	env, code = chaosQuery(t, s, "/query/similar", `{"id": 0, "k": 3}`)
	if code != http.StatusOK || env.Snapshot != "v000001" || env.Degraded {
		t.Fatalf("old corpus not serving after an oversized publish: status %d, %+v", code, env)
	}
}

// TestQueryChaosReloadUnchangedStore: an unchanged store is reloaded
// while a query is parked inside a shard. The store hands back the
// serving models, so the new generation shares the corpus weights and
// per-shard indexes and profiles the parked query is still reading,
// behind fresh shards: the shard the old generation lost serves again,
// the parked query finishes on its own generation, and every endpoint
// answers byte-identically to a server rebuilt over the same snapshot.
func TestQueryChaosReloadUnchangedStore(t *testing.T) {
	st, err := snapshot.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Backoff = resilience.Backoff{Sleep: func(time.Duration) {}}
	if _, err := st.Build(queryCorpusModels(12)); err != nil {
		t.Fatal(err)
	}
	boot, err := st.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot: boot,
		CorpusShards:   3,
		CorpusLoader:   func() (*snapshot.Snapshot, error) { return st.Load(context.Background()) },
	})

	// Shard 2 of the boot generation dies.
	disable := faults.Enable(FaultQueryShard, faults.Fault{Err: errors.New("injected shard kill"), Indices: []int{2}})
	if env, _ := chaosQuery(t, s, "/query/search", `{"processes": ["fry"]}`); !env.Degraded {
		t.Fatalf("shard kill did not degrade: %+v", env)
	}
	disable()
	old := s.loadCorpus()

	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	disable = faults.Enable(FaultQueryShard, faults.Fault{
		Indices: []int{0},
		OnHit:   func(int) { entered <- struct{}{}; <-gate },
	})
	defer disable()
	type answer struct {
		env  envelope
		code int
	}
	done := make(chan answer, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/query/similar", strings.NewReader(`{"id": 1, "k": 4}`))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		var env envelope
		if w.Code == http.StatusOK {
			_ = json.Unmarshal(w.Body.Bytes(), &env)
		}
		done <- answer{env, w.Code}
	}()

	<-entered // the query is inside shard 0 of the boot generation
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/reload/corpus", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("reload of an unchanged store: status %d: %s", w.Code, w.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["version"] != "v000001" || resp["docs"] != float64(12) || resp["shards"] != float64(3) {
		t.Fatalf("reload response %+v", resp)
	}
	cur := s.loadCorpus()
	if cur == old || cur.weights != old.weights || len(cur.shards) != len(old.shards) {
		t.Fatal("reload of an unchanged store did not share the serving corpus weights")
	}
	for i, sh := range cur.shards {
		o := old.shards[i]
		if sh == o || sh.ix != o.ix || &sh.profiles[0] != &o.profiles[0] || &sh.models[0] != &o.models[0] {
			t.Fatalf("shard %d: derived read state not shared behind a fresh shard", i)
		}
		if !sh.healthy.Load() || sh.failures.Load() != 0 {
			t.Fatalf("shard %d: new generation did not start healthy", i)
		}
	}

	close(gate)
	ans := <-done
	disable()
	if ans.code != http.StatusOK {
		t.Fatalf("in-flight query: status %d", ans.code)
	}
	if ans.env.Snapshot != "v000001" || !ans.env.Degraded || !reflect.DeepEqual(ans.env.FailedShards, []int{2}) {
		t.Fatalf("in-flight query not pinned to its generation: %+v", ans.env)
	}

	oracle := NewWithConfig(fakePipe{}, nil, Config{CorpusSnapshot: cur.snap, CorpusShards: 3})
	for path, body := range map[string]string{
		"/query/similar":   `{"id": 1, "k": 4}`,
		"/query/search":    `{"processes": ["fry"]}`,
		"/query/nutrition": `{"ids": [0, 2, 5, 11]}`,
	} {
		got := do(t, s, http.MethodPost, path, body).Body
		want := do(t, oracle, http.MethodPost, path, body).Body.String()
		if got.String() != want {
			t.Fatalf("%s after reload:\n  got  %s\n  want %s", path, got, want)
		}
		if env := decodeEnvelope(t, got); env.Degraded || env.ShardsServed != 3 {
			t.Fatalf("%s after reload: %+v", path, env)
		}
	}
}
