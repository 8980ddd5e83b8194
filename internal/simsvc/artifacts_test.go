package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

func TestCheckpointStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	// First server: functional-mode sweep captures one checkpoint per
	// workload and persists each to the store.
	s1 := newService(t, Config{Workers: 2, CachePath: path})
	submitAndWait(t, s1, functionalReq())
	m1 := s1.Snapshot()
	if m1.CheckpointsCaptured != 2 || m1.CheckpointsPersisted != 2 || m1.CheckpointDiskHits != 0 {
		t.Fatalf("first server checkpoint counters: %+v", m1)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(path + ckptDirSuffix)
	if err != nil || len(files) != 2 {
		t.Fatalf("checkpoint dir: %d files, err %v; want 2", len(files), err)
	}

	// Restarted server, different measurement budget: the result cache
	// cannot answer (different cache keys), but warmup state restores
	// from the store — zero warmup instructions are re-simulated.
	s2 := newService(t, Config{Workers: 2, CachePath: path})
	defer s2.Shutdown(context.Background())
	req := functionalReq()
	req.MaxInstrs = 3000
	j := submitAndWait(t, s2, req)
	m2 := s2.Snapshot()
	if m2.CheckpointDiskHits != 2 || m2.CheckpointsCaptured != 0 {
		t.Errorf("restarted server did not restore from disk: %+v", m2)
	}
	if m2.WarmupInstrsSimulated != 0 {
		t.Errorf("restarted server re-simulated %d warmup instructions", m2.WarmupInstrsSimulated)
	}

	// Disk-restored checkpoints must be invisible in the results: equal
	// to a direct harness run with the same options.
	got, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := s2.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatal("results via disk-restored checkpoints differ from a fresh run")
	}
}

func TestCheckpointStoreRejectsBudgetMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	s1 := newService(t, Config{Workers: 2, CachePath: path})
	submitAndWait(t, s1, functionalReq())
	s1.Shutdown(context.Background())

	// Same workloads, different warmup budget: the checkpoint key embeds
	// the budget, so the persisted files are simply never found and fresh
	// captures happen.
	s2 := newService(t, Config{Workers: 2, CachePath: path})
	defer s2.Shutdown(context.Background())
	req := functionalReq()
	w := uint64(1500)
	req.WarmupInstrs = &w
	submitAndWait(t, s2, req)
	m := s2.Snapshot()
	if m.CheckpointDiskHits != 0 || m.CheckpointsCaptured != 2 {
		t.Errorf("budget change reused stale checkpoints: %+v", m)
	}
}

func TestCheckpointStoreDisabledWithoutCachePath(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	submitAndWait(t, s, functionalReq())
	if m := s.Snapshot(); m.CheckpointsPersisted != 0 {
		t.Errorf("memory-only service persisted checkpoints: %+v", m)
	}
}

func TestCkptStoreCorruptFileIgnored(t *testing.T) {
	s := newService(t, Config{Workers: 1, CachePath: filepath.Join(t.TempDir(), "cache.json")})
	defer s.Shutdown(context.Background())
	st := s.store
	key := "some|ckpt|key"
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("ckpt", key), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ckpts.load(key, func(ck *arch.Checkpoint) bool { return ck.WarmupInstrs == 1000 }); ok {
		t.Fatal("corrupt checkpoint file decoded")
	}
}

// contractKind adapts one artifact kind to TestArtifactTierFailureContract.
type contractKind struct {
	name     string
	key      string
	good     []byte       // encoding of the correct artifact
	collided []namedBytes // well-formed encodings recorded with other build inputs
	// fetch runs the service's own lookup for key (real validity check,
	// real build) and reports whether it returned the correct artifact.
	fetch func(*Service) (bool, error)
	// get runs the tier's lookup for key with a build that calls fn
	// first, then returns the correct artifact.
	get    func(s *Service, fn func()) error
	counts func(*Service) (built, disk, peer uint64)
}

type namedBytes struct {
	name string
	data []byte
}

func encodeWith[T any](t *testing.T, encode func(T, io.Writer) error, v T) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := encode(v, &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func tierCounts[T any](tr *artifactTier[T]) (built, disk, peer uint64) {
	return tr.built.Load(), tr.diskHits.Load(), tr.peerHits.Load()
}

// contractSpec resolves req's first cell and its workload.
func contractSpec(t *testing.T, s *Service, req SweepRequest) (RunSpec, workload.Workload) {
	t.Helper()
	_, specs, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.ByName(specs[0].Workload)
	if err != nil {
		t.Fatal(err)
	}
	return specs[0], wl
}

func ckptContract(t *testing.T, s0 *Service) contractKind {
	spec, wl := contractSpec(t, s0, functionalReq())
	key, err := spec.CheckpointKey()
	if err != nil {
		t.Fatal(err)
	}
	want := harness.CaptureCheckpoint(wl, spec.WarmupInstrs)
	other := *want
	other.WarmupInstrs++
	enc := (*arch.Checkpoint).Encode
	return contractKind{
		name:     "ckpt",
		key:      key,
		good:     encodeWith(t, enc, want),
		collided: []namedBytes{{"warmup", encodeWith(t, enc, &other)}},
		fetch: func(s *Service) (bool, error) {
			ck := s.checkpoint(nil, key, wl, spec.WarmupInstrs)
			if ck == nil {
				return false, errors.New("no checkpoint")
			}
			return reflect.DeepEqual(ck, want), nil
		},
		get: func(s *Service, fn func()) error {
			_, err := s.ckpts.get(nil, key, func(*arch.Checkpoint) bool { return true },
				func() (*arch.Checkpoint, error) { fn(); return want, nil })
			return err
		},
		counts: func(s *Service) (uint64, uint64, uint64) { return tierCounts(s.ckpts) },
	}
}

func planContract(t *testing.T, s0 *Service) contractKind {
	spec, wl := contractSpec(t, s0, sampledReq())
	key, err := spec.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg := simpoint.Config{IntervalInstrs: spec.SampleInterval, MaxK: spec.SampleMaxK, Seed: spec.SampleSeed}
	want, err := harness.BuildSamplePlan(wl, spec.WarmupInstrs, spec.MaxInstrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, win := spec.WarmupInstrs, spec.MaxInstrs
	pf := func(warmup, window uint64, cfg simpoint.Config, cks []*arch.Checkpoint) []byte {
		return encodeWith(t, encodePlan, &planFile{Warmup: warmup, Window: window, Cfg: cfg, Plan: want.Plan, Checkpoints: cks})
	}
	otherCfg := cfg
	otherCfg.Seed++
	good := &planFile{Warmup: w, Window: win, Cfg: cfg, Plan: want.Plan, Checkpoints: want.Checkpoints}
	return contractKind{
		name: "plan",
		key:  key,
		good: encodeWith(t, encodePlan, good),
		collided: []namedBytes{
			{"warmup", pf(w+1, win, cfg, want.Checkpoints)},
			{"window", pf(w, win+1, cfg, want.Checkpoints)},
			{"config", pf(w, win, otherCfg, want.Checkpoints)},
			{"checkpoints", pf(w, win, cfg, want.Checkpoints[1:])},
		},
		fetch: func(s *Service) (bool, error) {
			sp, err := s.samplePlan(nil, key, wl, spec)
			if err != nil {
				return false, err
			}
			return reflect.DeepEqual(sp, want), nil
		},
		get: func(s *Service, fn func()) error {
			_, err := s.plans.get(nil, key, func(*planFile) bool { return true },
				func() (*planFile, error) { fn(); return good, nil })
			return err
		},
		counts: func(s *Service) (uint64, uint64, uint64) { return tierCounts(s.plans) },
	}
}

// TestArtifactTierFailureContract pins the tier's failure contract for
// both kinds: a corrupt or colliding disk file, a peer body that fails
// its checksum, names the wrong hash or carries a colliding artifact,
// and a panicking build each end in a correct local build, never in a
// disk or peer hit.
func TestArtifactTierFailureContract(t *testing.T) {
	s0 := newService(t, Config{Workers: 1})
	defer s0.Shutdown(context.Background())

	// The one peer serves peerBody for every artifact (nil: 404).
	var mu sync.Mutex
	var peerBody []byte
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		b := peerBody
		mu.Unlock()
		if b == nil {
			http.NotFound(w, r)
			return
		}
		w.Write(b)
	}))
	defer peer.Close()
	envelope := func(hash string, data []byte, sum string) []byte {
		b, err := json.Marshal(artifactEntry{Hash: hash, Sum: sum, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, k := range []contractKind{ckptContract(t, s0), planContract(t, s0)} {
		hash, otherHash := artifactName(k.key), artifactName(k.key+"|other")
		type tc struct {
			name       string
			file, body []byte
			panics     bool
		}
		cases := []tc{
			{name: "corrupt file", file: []byte("not a gob")},
			{name: "peer bad checksum", body: envelope(hash, k.good, entrySum(hash, k.good[1:]))},
			{name: "peer wrong hash", body: envelope(otherHash, k.good, entrySum(otherHash, k.good))},
			{name: "panicking build", panics: true},
		}
		for _, c := range k.collided {
			cases = append(cases, tc{name: "colliding file " + c.name, file: c.data},
				tc{name: "colliding peer body " + c.name, body: envelope(hash, c.data, entrySum(hash, c.data))})
		}
		for _, c := range cases {
			t.Run(k.name+"/"+c.name, func(t *testing.T) {
				mu.Lock()
				peerBody = c.body
				mu.Unlock()
				s := newService(t, Config{Workers: 1, CachePath: filepath.Join(t.TempDir(), "cache.json"),
					Peers: []string{peer.URL}, PeerArtifacts: true, PeerProbeInterval: -1})
				defer s.Shutdown(context.Background())
				if c.file != nil {
					if err := os.MkdirAll(s.store.dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(s.store.path(k.name, k.key), c.file, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if c.panics {
					checkPanickingBuild(t, s, k)
				} else if ok, err := k.fetch(s); err != nil || !ok {
					t.Fatalf("lookup: correct=%v err=%v", ok, err)
				}
				if built, disk, peer := k.counts(s); built != 1 || disk != 0 || peer != 0 {
					t.Fatalf("built=%d disk hits=%d peer hits=%d, want 1/0/0", built, disk, peer)
				}
			})
		}
	}
}

// checkPanickingBuild: every caller blocked on a panicking build sees
// the failure, and the entry is dropped so the next call rebuilds.
func checkPanickingBuild(t *testing.T, s *Service, k contractKind) {
	t.Helper()
	var failing atomic.Bool
	failing.Store(true)
	release := make(chan struct{})
	var builds atomic.Int32
	fn := func() {
		builds.Add(1)
		if failing.Load() {
			<-release
			panic("injected build failure")
		}
	}
	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() { errs <- k.get(s, fn) }()
	}
	for builds.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Give the other callers time to join the flight. One that arrives
	// after the panic builds and panics itself, so the assertions below
	// hold either way.
	time.Sleep(20 * time.Millisecond)
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil {
			t.Error("a caller of a panicking build saw success")
		}
	}
	failing.Store(false)
	n := builds.Load()
	if err := k.get(s, fn); err != nil {
		t.Fatalf("call after the panic: %v", err)
	}
	if builds.Load() != n+1 {
		t.Fatal("call after the panic did not rebuild")
	}
}

// TestArtifactEndpointVetting: GET /artifacts serves only the two kinds
// and artifactName's exact hash form; everything else is a 404, even
// when a file of that name exists in the store.
func TestArtifactEndpointVetting(t *testing.T) {
	s := newService(t, Config{Workers: 1, CachePath: filepath.Join(t.TempDir(), "cache.json"), PeerArtifacts: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key := "vetting|ckpt|key"
	s.ckpts.persist(key, &arch.Checkpoint{WarmupInstrs: 7})
	hash := artifactName(key)
	data, err := os.ReadFile(s.store.path("ckpt", key))
	if err != nil {
		t.Fatal(err)
	}
	// Decoys: the same bytes under names a lax vetting would serve.
	for _, name := range []string{strings.ToUpper(hash) + ".ckpt", hash + ".json"} {
		if err := os.WriteFile(filepath.Join(s.store.dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	body := get(t, ts.URL+"/artifacts/ckpt/"+hash, http.StatusOK)
	raw, err := decodeArtifact(hash, body)
	if err != nil {
		t.Fatalf("served envelope rejected: %v", err)
	}
	if ck, err := arch.Decode(bytes.NewReader(raw)); err != nil || ck.WarmupInstrs != 7 {
		t.Fatalf("served artifact: %+v, %v", ck, err)
	}

	for _, path := range []string{
		"/artifacts/ckpt/" + strings.ToUpper(hash),
		"/artifacts/ckpt/" + hash[:31],
		"/artifacts/ckpt/" + hash + "0",
		"/artifacts/ckpt/..",
		"/artifacts/ckpt/..%2Fcache.json",
		"/artifacts/json/" + hash,
	} {
		get(t, ts.URL+path, http.StatusNotFound)
	}
	// The handler vets what the mux hands it, too: a ".." segment that
	// reached it unclean would still be refused.
	for _, hv := range []string{"..", "../" + hash[3:]} {
		req := httptest.NewRequest(http.MethodGet, "/artifacts/ckpt/x", nil)
		req.SetPathValue("kind", "ckpt")
		req.SetPathValue("hash", hv)
		rec := httptest.NewRecorder()
		s.handleArtifact(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("hash %q: status %d, want 404", hv, rec.Code)
		}
	}
}

// TestMetricNamesGolden pins the full /metrics name set of a service
// with every optional subsystem on, so a refactor cannot rename or drop
// a metric unnoticed.
func TestMetricNamesGolden(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Config{
		Workers:           1,
		CachePath:         filepath.Join(dir, "cache.json"),
		JournalPath:       filepath.Join(dir, "cache.jobs"),
		Peers:             []string{"http://127.0.0.1:1"},
		PeerProbeInterval: -1,
		PeerArtifacts:     true,
		WorkStealing:      true,
		AutoTimeout:       true,
		Trace:             true,
	})
	defer s.Shutdown(context.Background())
	var b bytes.Buffer
	s.Registry().WriteText(&b)
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			got = append(got, f[2])
		}
	}
	sort.Strings(got)
	want := []string{
		"sdo_build_info",
		"sdo_cache_bytes",
		"sdo_cache_corrupt_entries_total",
		"sdo_cache_entries",
		"sdo_cache_evicted_bytes_total",
		"sdo_cache_evictions_total",
		"sdo_cache_hits_total",
		"sdo_cache_max_bytes",
		"sdo_cache_max_entries",
		"sdo_cache_misses_total",
		"sdo_cache_persist_failures_total",
		"sdo_cache_persistence_enabled",
		"sdo_cache_quarantined_files_total",
		"sdo_cell_panics_total",
		"sdo_cell_stalls_total",
		"sdo_cell_timeout_seconds",
		"sdo_cell_timeouts_total",
		"sdo_cells_failed_total",
		"sdo_checkpoint_disk_hits_total",
		"sdo_checkpoint_hits_total",
		"sdo_checkpoints_captured_total",
		"sdo_checkpoints_persisted_total",
		"sdo_cluster_cells_stolen_total",
		"sdo_cluster_ckpt_peer_hits_total",
		"sdo_cluster_lease_expiries_total",
		"sdo_cluster_plan_peer_hits_total",
		"sdo_cluster_steal_completions_total",
		"sdo_faults_injected_total",
		"sdo_gc_pause_seconds_total",
		"sdo_gc_runs_total",
		"sdo_goroutines",
		"sdo_heap_alloc_bytes",
		"sdo_heap_objects",
		"sdo_heap_sys_bytes",
		"sdo_inflight_runs",
		"sdo_jobs_evicted_total",
		"sdo_jobs_rejected_total",
		"sdo_jobs_total",
		"sdo_jobs_tracked",
		"sdo_journal_append_failures_total",
		"sdo_journal_appends_total",
		"sdo_journal_corrupt_lines_total",
		"sdo_journal_enabled",
		"sdo_peer_errors_total",
		"sdo_peer_hedges_total",
		"sdo_peer_hits_total",
		"sdo_peer_lookup_seconds",
		"sdo_peer_misses_total",
		"sdo_peers_available",
		"sdo_peers_configured",
		"sdo_profiled_instrs_total",
		"sdo_queue_depth",
		"sdo_queue_latency_seconds",
		"sdo_resume_cells_rerun_total",
		"sdo_resume_cells_skipped_total",
		"sdo_resume_jobs_active",
		"sdo_resume_jobs_total",
		"sdo_run_duration_seconds",
		"sdo_run_seconds_total",
		"sdo_runs_deduped_total",
		"sdo_runs_executed_total",
		"sdo_runs_retried_total",
		"sdo_runs_skipped_total",
		"sdo_sample_plan_disk_hits_total",
		"sdo_sample_plan_hits_total",
		"sdo_sample_plan_seconds",
		"sdo_sample_plans_built_total",
		"sdo_sample_plans_persisted_total",
		"sdo_sampled_cells_total",
		"sdo_sampled_detailed_instrs_total",
		"sdo_slow_cells_total",
		"sdo_trace_jobs",
		"sdo_warmup_instrs_simulated_total",
		"sdo_workers",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metric names changed:\n got  %q\n want %q", got, want)
	}
}
