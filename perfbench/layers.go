package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// layerPlan is what a workload's layer pass drives directly: its kernels
// at its budget, every Table II variant under Spectre through the
// pipeline. Mirrored variants are the ones the workload's own sweeps run;
// only spans of mirrored work count toward the host-time shares.
type layerPlan struct {
	kernels  []string
	budget   Budget
	mirrored map[string]bool // variant req → the workload runs it
}

func planLayers(name string, seed int64) layerPlan {
	rng := rand.New(rand.NewSource(seed))
	all := map[string]bool{}
	for _, v := range variants {
		all[v.req] = true
	}
	switch name {
	case "paper-grid":
		return layerPlan{kernels: paperGridKernels(rng), budget: paperBudget, mirrored: all}
	case "sampled-grid":
		return layerPlan{kernels: workload.Names(), budget: sampledGridBudget(rng.Intn(len(sampledSeeds)), 0),
			mirrored: map[string]bool{"unsafe": true, "hybrid": true}}
	case "cluster-pair":
		return layerPlan{kernels: workload.Names(), budget: clusterBudget,
			mirrored: map[string]bool{"unsafe": true, "hybrid": true}}
	default: // session: the pipeline runs only new cells
		return layerPlan{kernels: workload.Names(), budget: sessionBudget, mirrored: map[string]bool{}}
	}
}

// layerStats accumulates the layer pass.
type layerStats struct {
	execInstrs  float64
	execTime    time.Duration
	captureMS   []float64
	profileMS   []float64
	clusterMS   []float64
	detailShare []float64
	// per variant slug: instructions processed and host time of Machine.Run
	pipeInstrs map[string]float64
	pipeTime   map[string]time.Duration
	cycles     float64
	mallocs    float64
	allocBytes float64
	// exact simulated counters summed over the pass's results
	res core.Result
	// self time of mirrored work per layer
	mirror map[string]time.Duration
}

// layerPass calls each layer's public entry points directly, one at a
// time, with a span around each call.
func layerPass(rec *recorder, lp layerPlan) (*layerStats, error) {
	ls := &layerStats{pipeInstrs: map[string]float64{}, pipeTime: map[string]time.Duration{}, mirror: map[string]time.Duration{}}
	b := lp.budget
	for _, name := range lp.kernels {
		wl, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, init := wl.Build()

		// arch: the functional emulator over warmup + window.
		m := isa.NewMemory()
		if init != nil {
			init(m)
		}
		var regs [isa.NumRegs]uint64
		var er arch.ExecResult
		ls.execTime += rec.time("arch.Exec", false, func() { er, err = arch.Exec(prog, m, &regs, b.Warmup+b.Max) })
		if err != nil && !errors.Is(err, arch.ErrStepBudget) { // a budget short of halt is the point
			return nil, fmt.Errorf("arch.Exec %s: %w", name, err)
		}
		ls.execInstrs += float64(er.Instrs)

		// simpoint: profile and cluster the measurement window.
		cfg := harness.TunedSampleConfig(name, simpoint.Config{IntervalInstrs: b.SampleInterval, MaxK: b.SampleMaxK, Seed: b.SampleSeed})
		var pr *simpoint.Profile
		dp := rec.time("simpoint.ProfileProgram", b.Sampled, func() { pr, err = simpoint.ProfileProgram(prog, init, b.Warmup, b.Max, cfg) })
		if err != nil {
			return nil, fmt.Errorf("simpoint.ProfileProgram %s: %w", name, err)
		}
		var plan *simpoint.Plan
		dc := rec.time("simpoint.Cluster", b.Sampled, func() { plan, err = pr.Cluster() })
		if err != nil {
			return nil, fmt.Errorf("simpoint.Cluster %s: %w", name, err)
		}
		ls.profileMS = append(ls.profileMS, ms(dp))
		ls.clusterMS = append(ls.clusterMS, ms(dc))
		ls.detailShare = append(ls.detailShare, float64(plan.SampledInstrs())/float64(plan.WindowInstrs))
		if b.Sampled {
			ls.mirror["simpoint"] += dp + dc
		}

		// arch: warmup checkpoints — one per representative in sampled
		// mode, one per workload for functional warmup otherwise.
		var cks []*arch.Checkpoint
		var d time.Duration
		if b.Sampled {
			d = rec.time("arch.CaptureCheckpoints", true, func() {
				cks = core.CaptureCheckpoints(core.Config{}, prog, init, plan.Boundaries())
			})
			ls.mirror["arch"] += d
		} else {
			d = rec.time("arch.CaptureCheckpoint", false, func() { harness.CaptureCheckpoint(wl, b.Warmup) })
		}
		ls.captureMS = append(ls.captureMS, ms(d))

		// pipeline: every variant under Spectre.
		for _, v := range variants {
			vr, _ := core.ParseVariant(v.req)
			mirrored := lp.mirrored[v.req]
			if !b.Sampled {
				cfg := core.Config{Variant: vr, Model: pipeline.Spectre, WarmupInstrs: b.Warmup, MaxInstrs: b.Max}
				r, err := ls.runMachine(rec, name, v.slug, mirrored, cfg, nil, b.Warmup)
				if err != nil {
					return nil, err
				}
				ls.add(r)
				continue
			}
			for ri, rep := range plan.Reps {
				cfg := core.Config{Variant: vr, Model: pipeline.Spectre, WarmupInstrs: rep.Start,
					WarmupMode: core.WarmupFunctional, MaxInstrs: rep.Len}
				if _, err := ls.runMachine(rec, name, v.slug, mirrored, cfg, cks[ri], 0); err != nil {
					return nil, err
				}
			}
			if mirrored {
				// Exact counters from the reconstruction the sweep exports.
				sp := &harness.SamplePlan{Plan: plan, Checkpoints: cks}
				var r core.Result
				rec.time("harness.RunSampledCell", false, func() {
					r, _, err = harness.RunSampledCell(context.Background(), 1, wl, vr, pipeline.Spectre, core.Ablation{},
						sp, harness.RunParams{WarmupInstrs: b.Warmup, MaxInstrs: b.Max}, harness.RunPolicy{}, nil)
				})
				if err != nil {
					return nil, fmt.Errorf("harness.RunSampledCell %s/%s: %w", name, v.slug, err)
				}
				ls.add(r)
			}
		}
	}
	return ls, nil
}

// runMachine builds a machine (harness-layer set-up: program, machine,
// checkpoint restore) and runs it (pipeline), measuring the run's host
// time and heap allocations. warmupInstrs counts detailed warmup
// instructions Run executes before the measured window.
func (ls *layerStats) runMachine(rec *recorder, kernel, slug string, mirrored bool, cfg core.Config,
	ck *arch.Checkpoint, warmupInstrs uint64) (core.Result, error) {
	wl, err := workload.ByName(kernel)
	if err != nil {
		return core.Result{}, err
	}
	var m *core.Machine
	d := rec.time("harness.NewMachine", mirrored, func() {
		prog, init := wl.Build()
		m = core.NewMachine(cfg, prog, init)
		if ck != nil {
			err = m.Restore(ck)
		}
	})
	if err != nil {
		return core.Result{}, fmt.Errorf("restore %s/%s: %w", kernel, slug, err)
	}
	if mirrored {
		ls.mirror["harness"] += d
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r core.Result
	start := time.Now()
	r, err = m.Run()
	end := time.Now()
	runtime.ReadMemStats(&after)
	rec.add(span{Name: "pipeline.Run", Start: start, End: end, Work: mirrored,
		Attrs: map[string]string{"kernel": kernel, "variant": slug}})
	if err != nil {
		return core.Result{}, fmt.Errorf("pipeline %s/%s: %w", kernel, slug, err)
	}
	if mirrored {
		ls.mirror["pipeline"] += end.Sub(start)
	}
	instrs := float64(warmupInstrs + r.Committed)
	ls.pipeInstrs[slug] += instrs
	ls.pipeTime[slug] += end.Sub(start)
	ls.cycles += float64(r.Cycles)
	ls.mallocs += float64(after.Mallocs - before.Mallocs)
	ls.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	return r, nil
}

// add sums a result's simulated counters.
func (ls *layerStats) add(r core.Result) {
	t := &ls.res
	t.Cycles += r.Cycles
	t.Committed += r.Committed
	for i := range r.Squashes {
		t.Squashes[i] += r.Squashes[i]
	}
	t.LoadDelayCycles += r.LoadDelayCycles
	t.FPDelayCycles += r.FPDelayCycles
	t.BranchMispredicts += r.BranchMispredicts
	t.OblIssued += r.OblIssued
	t.OblSuccess += r.OblSuccess
	t.PredPrecise += r.PredPrecise
	t.PredImprecise += r.PredImprecise
	t.PredInaccurate += r.PredInaccurate
	t.ValidationStall += r.ValidationStall
	t.L1DMisses += r.L1DMisses
	t.L2Misses += r.L2Misses
	t.TLBMisses += r.TLBMisses
	t.DRAMRowHits += r.DRAMRowHits
	t.DRAMRowMisses += r.DRAMRowMisses
}

// metricSet is an ordered list of named metrics.
type metricSet []metric

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func (s *metricSet) add(name string, v float64, unit string) {
	*s = append(*s, metric{name, v, unit})
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(untraced, traced *outcome, rc *runCtx, ls *layerStats) metricSet {
	var out metricSet
	nz := func(x float64) float64 {
		if math.IsNaN(x) { // no samples
			return 0
		}
		return x
	}
	perK := func(x float64) float64 { return ratio(x, float64(ls.res.Committed)/1000) }

	out.add("arch.exec_minstrs_per_s", ratio(ls.execInstrs, ls.execTime.Seconds())/1e6, "Minstr/s")
	out.add("arch.capture_ms_p50", nz(median(ls.captureMS)), "ms")
	out.add("simpoint.profile_ms_p50", nz(median(ls.profileMS)), "ms")
	out.add("simpoint.cluster_ms_p50", nz(median(ls.clusterMS)), "ms")
	out.add("simpoint.detailed_share", mean(ls.detailShare), "ratio")
	out.add("simpoint.sampled_err_pct", mean(traced.sampledErr), "%")

	var instrs float64
	var host time.Duration
	for _, v := range variants {
		out.add("pipeline.minstrs_per_s."+v.slug, ratio(ls.pipeInstrs[v.slug], ls.pipeTime[v.slug].Seconds())/1e6, "Minstr/s")
		instrs += ls.pipeInstrs[v.slug]
		host += ls.pipeTime[v.slug]
	}
	out.add("pipeline.host_ns_per_cycle", ratio(float64(host.Nanoseconds()), ls.cycles), "ns/cycle")
	out.add("pipeline.allocs_per_kinstr", ratio(ls.mallocs, instrs/1000), "allocs/kinstr")
	out.add("pipeline.bytes_per_kinstr", ratio(ls.allocBytes, instrs/1000), "B/kinstr")
	r := ls.res
	out.add("pipeline.ipc", ratio(float64(r.Committed), float64(r.Cycles)), "instr/cycle")
	out.add("pipeline.squashes_per_kinstr", perK(float64(r.TotalSquashes())), "1/kinstr")
	out.add("pipeline.stt_delay_cycles_per_kinstr", perK(float64(r.LoadDelayCycles+r.FPDelayCycles)), "cycles/kinstr")
	out.add("mem.l1d_mpki", perK(float64(r.L1DMisses)), "1/kinstr")
	out.add("mem.l2_mpki", perK(float64(r.L2Misses)), "1/kinstr")
	out.add("mem.tlb_mpki", perK(float64(r.TLBMisses)), "1/kinstr")
	out.add("mem.dram_row_hit_ratio", ratio(float64(r.DRAMRowHits), float64(r.DRAMRowHits+r.DRAMRowMisses)), "ratio")
	out.add("sdo.obl_per_kinstr", perK(float64(r.OblIssued)), "1/kinstr")
	out.add("sdo.obl_success_ratio", ratio(float64(r.OblSuccess), float64(r.OblIssued)), "ratio")
	out.add("sdo.pred_precise_ratio", ratio(float64(r.PredPrecise), float64(r.PredPrecise+r.PredImprecise+r.PredInaccurate)), "ratio")
	out.add("sdo.validation_stall_per_kinstr", perK(float64(r.ValidationStall)), "cycles/kinstr")
	out.add("bpred.mispredict_per_kinstr", perK(float64(r.BranchMispredicts)), "1/kinstr")

	st := rc.svc
	out.add("harness.cell_ms_p50", nz(median(st.detailedCells)), "ms")
	out.add("harness.cell_ms_p90", nz(quantile(st.detailedCells, 0.9)), "ms")
	out.add("harness.sampled_cell_ms_p50", nz(median(st.sampledCells)), "ms")
	out.add("harness.retries", st.retries, "count")

	var queueMS, cacheUS []float64
	var wall, simulate, other, plan float64
	for _, a := range st.attrib {
		queueMS = append(queueMS, float64(a.QueueUS)/1000)
		cacheUS = append(cacheUS, float64(a.CacheUS))
		wall += float64(a.WallUS)
		simulate += float64(a.SimulateUS)
		other += float64(a.OtherUS)
		plan += float64(a.PlanUS + a.CheckpointUS)
	}
	out.add("simsvc.cache_hit_ratio", ratio(st.hits, st.hits+st.misses), "ratio")
	out.add("simsvc.runs_executed", st.executed, "count")
	out.add("simsvc.runs_deduped", st.deduped, "count")
	out.add("simsvc.journal_appends", st.journal, "count")
	out.add("simsvc.queue_ms_p90", nz(quantile(queueMS, 0.9)), "ms")
	out.add("simsvc.cache_lookup_us_p50", nz(median(cacheUS)), "us")
	out.add("simsvc.simulate_share", ratio(simulate, wall), "ratio")
	out.add("simsvc.other_share", ratio(other, wall), "ratio")
	out.add("simsvc.plan_share", ratio(plan, wall), "ratio")

	var submits, exports, exportKB []float64
	for _, s := range rc.rec.named("http.submit") {
		if s.Attrs["proxied"] == "" {
			submits = append(submits, ms(s.dur()))
		}
	}
	for _, s := range rc.rec.named("http.export") {
		if s.Attrs["proxied"] == "" {
			exports = append(exports, ms(s.dur()))
			b, _ := strconv.ParseFloat(s.Attrs["bytes"], 64)
			exportKB = append(exportKB, b/1024)
		}
	}
	out.add("http.submit_ms_p50", nz(median(submits)), "ms")
	out.add("http.export_ms_p50", nz(median(exports)), "ms")
	out.add("http.export_kb", mean(exportKB), "KB")

	var cells float64
	for _, op := range traced.ops {
		cells += float64(op.Cells)
	}
	out.add("cluster.proxied_requests", st.proxied, "count")
	out.add("cluster.stolen_share", ratio(st.stolen, cells), "ratio")
	out.add("cluster.lease_expiries", st.leaseExpiries, "count")
	out.add("cluster.proxy_ms_p50", nz(median(rc.rec.durationsMS("http.status", "proxied"))), "ms")
	out.add("fabric.peer_hits", st.peerHits, "count")
	out.add("fabric.peer_lookup_ms_p50", nz(median(rc.rec.durationsMS("fabric.peer_lookup", ""))), "ms")

	var late []float64
	for _, l := range traced.late {
		late = append(late, ms(l))
	}
	out.add("loadgen.late_ms_p90", nz(quantile(late, 0.9)), "ms")
	lateMax := 0.0
	for _, l := range late {
		lateMax = max(lateMax, l)
	}
	out.add("loadgen.late_ms_max", lateMax, "ms")

	out.add("trace.overhead_pct", 100*(ratio(sweepS(traced), sweepS(untraced))-1), "%")
	out.add("trace.unattributed_pct", unattributedPct(traced, rc.rec), "%")

	var mirrorTotal time.Duration
	for _, d := range ls.mirror {
		mirrorTotal += d
	}
	out.add("layers.pipeline_share", ratio(float64(ls.mirror["pipeline"]), float64(mirrorTotal)), "ratio")
	out.add("layers.arch_simpoint_share", ratio(float64(ls.mirror["arch"]+ls.mirror["simpoint"]), float64(mirrorTotal)), "ratio")
	return out
}

// interval is a half-open time range.
type interval struct{ a, b time.Time }

// union merges overlapping intervals.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].a.Before(iv[j].a) })
	var out []interval
	for _, x := range iv {
		if !x.b.After(x.a) {
			continue
		}
		if n := len(out); n > 0 && !x.a.After(out[n-1].b) {
			if x.b.After(out[n-1].b) {
				out[n-1].b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func total(iv []interval) time.Duration {
	var d time.Duration
	for _, x := range iv {
		d += x.b.Sub(x.a)
	}
	return d
}

// covered is how much of the (merged) roots the (merged) work covers.
func covered(roots, work []interval) time.Duration {
	var d time.Duration
	i := 0
	for _, r := range roots {
		for i < len(work) && !work[i].b.After(r.a) {
			i++
		}
		for j := i; j < len(work) && work[j].a.Before(r.b); j++ {
			a, b := work[j].a, work[j].b
			if a.Before(r.a) {
				a = r.a
			}
			if b.After(r.b) {
				b = r.b
			}
			if b.After(a) {
				d += b.Sub(a)
			}
		}
	}
	return d
}

// unattributedPct is the share of the traced pass's end-to-end time —
// the union of its operations from due time to verified export — during
// which no layer did work (no work span was open).
func unattributedPct(o *outcome, rec *recorder) float64 {
	var roots, work []interval
	for _, op := range o.ops {
		roots = append(roots, interval{op.Due, op.Done})
	}
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.Work {
			work = append(work, interval{s.Start, s.End})
		}
	}
	rec.mu.Unlock()
	roots, work = union(roots), union(work)
	t := total(roots)
	return 100 * ratio(float64(t-covered(roots, work)), float64(t))
}

// selfTimes sums each layer's span time within the traced pass and the
// layer pass, for the printed breakdown.
func selfTimes(rec *recorder) map[string]time.Duration {
	out := map[string]time.Duration{}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, s := range rec.spans {
		out[s.Name] += s.dur()
	}
	return out
}
