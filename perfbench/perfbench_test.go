package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func TestSeededInputsAreDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, b := planSession(seed, 15), planSession(seed, 15)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two session plans differ", seed)
		}
		ka := paperGridKernels(rand.New(rand.NewSource(seed)))
		kb := paperGridKernels(rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("seed %d: paper-grid kernels %v vs %v", seed, ka, kb)
		}
		if len(a.Ops) < 100 {
			t.Errorf("seed %d: %d session ops, want ≥ 100", seed, len(a.Ops))
		}
	}
	if reflect.DeepEqual(planSession(1, 15), planSession(2, 15)) {
		t.Error("seeds 1 and 2 generate the same session")
	}
}

func TestPaperGridKernelClasses(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		ks := paperGridKernels(rand.New(rand.NewSource(seed)))
		has := map[string]bool{}
		for _, k := range ks {
			has[k] = true
		}
		if !has["gcc_r"] || !has["x264_r"] || !has["mcf_r"] || len(has) != 4 {
			t.Fatalf("seed %d: kernel set %v lacks an L2-resident, branchy or DRAM-bound kernel", seed, ks)
		}
	}
}

func TestSessionMix(t *testing.T) {
	p := planSession(7, 20)
	kinds := map[string]int{}
	for i, op := range p.Ops {
		kinds[op.Kind]++
		if op.Kind == opReexport && (op.Grid < 0 || op.Grid >= sessionGrids) {
			t.Errorf("op %d re-exports grid %d", i, op.Grid)
		}
	}
	if kinds[opHeadline] != 1 {
		t.Errorf("%d headline sweeps, want 1", kinds[opHeadline])
	}
	// The median must fall among re-exports and the 90th percentile among
	// simulating sweeps.
	n := len(p.Ops)
	if kinds[opReexport] < n*6/10 || kinds[opNew] < n*12/100 {
		t.Errorf("mix %v of %d ops", kinds, n)
	}
}

// Latency is timed from the due send time: an operation stuck behind a
// slow one is charged the wait, and a late generator is reported.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var conn sync.Mutex // one connection
	dues := []time.Duration{0, 10 * time.Millisecond}
	start := time.Now()
	out := openLoop(start, dues, func(i int) error {
		conn.Lock()
		defer conn.Unlock()
		if i == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		return nil
	})
	if lat := out[1].Done.Sub(out[1].Due); lat < 180*time.Millisecond {
		t.Errorf("op 1 latency %v: not timed from its due time", lat)
	}
	if !out[1].Due.Equal(start.Add(10 * time.Millisecond)) {
		t.Errorf("op 1 due %v, want start+10ms", out[1].Due.Sub(start))
	}

	past := time.Now().Add(-300 * time.Millisecond)
	out = openLoop(past, []time.Duration{0}, func(int) error { return nil })
	if late := out[0].Sent.Sub(out[0].Due); late < 300*time.Millisecond {
		t.Errorf("generator lateness %v, want ≥ 300ms", late)
	}
	if lat := out[0].Done.Sub(out[0].Due); lat < 300*time.Millisecond {
		t.Errorf("latency %v excludes the generator's lateness", lat)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		got := tail(seq(c.n))
		if got.Pct != c.want || got.N != c.n {
			t.Errorf("n=%d: p%g over %d samples, want p%g", c.n, got.Pct, got.N, c.want)
		}
	}
	if got := tail(seq(100)); got.Value < 90 || got.Value > 91 {
		t.Errorf("p90 of 1..100 = %g", got.Value)
	}
}

func TestFlippedExportByteFails(t *testing.T) {
	b := sessionBudget
	ws, vs, ms := []string{"mcf_r", "x264_r"}, []string{"unsafe", "hybrid"}, []string{"spectre"}
	res := &harness.Results{Opt: harness.Options{MaxInstrs: b.Max, WarmupInstrs: b.Warmup},
		Runs: map[harness.Key]core.Result{}}
	for _, w := range ws {
		wl, err := workload.ByName(w)
		if err != nil {
			t.Fatal(err)
		}
		res.Opt.Workloads = append(res.Opt.Workloads, wl)
	}
	res.Opt.Variants = []core.Variant{core.Unsafe, core.Hybrid}
	res.Opt.Models = []pipeline.AttackModel{pipeline.Spectre}
	for i, w := range ws {
		for j, v := range res.Opt.Variants {
			s := pipeline.Stats{Cycles: uint64(123456 + 7919*i + 3001*j), Committed: 6000,
				OblIssued: uint64(77 * j), OblFail: uint64(5 * j), Validations: uint64(40 * j),
				ValidationStall: uint64(900 * j), PredPrecise: uint64(50 * j), PredImprecise: uint64(20 * j),
				PredInaccurate: uint64(7 * j), ImprecisionCycles: uint64(300 * j)}
			s.Squashes[oblFailIdx] = uint64(5 * j)
			s.Squashes[tlbIdx] = uint64(2 * j)
			s.Squashes[otherIdx] = uint64(11 + i)
			res.Runs[harness.Key{Workload: w, Variant: v, Model: pipeline.Spectre}] = core.Result{Variant: v, Model: pipeline.Spectre, Stats: s}
		}
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	ref := &Reference{Cells: map[string]RefCell{}}
	for _, r := range res.Export().Runs {
		k, _, err := RefCell{}.result(r)
		if err != nil {
			t.Fatal(err)
		}
		ref.Cells[cellID(b, r.Workload, r.Variant, r.Model)] = refCell(r, res.Runs[k])
	}
	if _, err := ref.verify(body, b, ws, vs, ms); err != nil {
		t.Fatalf("intact export rejected: %v", err)
	}
	// Every byte of the body counts: the rows, their norm_time, the
	// aggregate sections and the layout.
	for pos := range body {
		bad := append([]byte(nil), body...)
		bad[pos] ^= 0x01
		if _, err := ref.verify(bad, b, ws, vs, ms); err == nil {
			t.Errorf("flip at byte %d (%q in %q) verified", pos, body[pos], body[max(0, pos-20):pos+1])
		}
	}
	// A wrong aggregate-only counter in the reference fails too.
	id := cellID(b, "mcf_r", "Hybrid", "Spectre")
	c := ref.Cells[id]
	c.ImprecisionCycles++
	ref.Cells[id] = c
	if _, err := ref.verify(body, b, ws, vs, ms); err == nil {
		t.Error("export verified against a wrong Figure 7 input")
	}
}

func TestUnattributedCoverage(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	roots := union([]interval{{at(0), at(100)}, {at(50), at(150)}, {at(200), at(300)}})
	if total(roots) != 250*time.Millisecond {
		t.Fatalf("union total %v", total(roots))
	}
	work := union([]interval{{at(10), at(60)}, {at(40), at(90)}, {at(140), at(210)}, {at(290), at(400)}})
	if got := covered(roots, work); got != 110*time.Millisecond {
		t.Errorf("covered %v, want 110ms", got)
	}
}
