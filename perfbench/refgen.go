package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// genReference computes, with harness.RunOne (harness.RunSampledCell for
// sampled cells), every cell the workloads can draw and writes the
// reference table.
func genReference(path string) error {
	ref := Reference{Cells: map[string]RefCell{}}
	var mu sync.Mutex
	put := func(b Budget, r harness.ExportRun, res core.Result) {
		mu.Lock()
		defer mu.Unlock()
		ref.Cells[cellID(b, r.Workload, r.Variant, r.Model)] = refCell(r, res)
	}

	paperKernels := map[string]bool{"gcc_r": true, "x264_r": true, "mcf_r": true}
	for _, k := range paperFillers {
		paperKernels[k] = true
	}
	type group struct {
		b           Budget
		kernel      string
		models      []string
		variantReqs []string
	}
	var groups []group
	for _, k := range workload.Names() {
		if paperKernels[k] {
			groups = append(groups, group{paperBudget, k, bothModels, allVariantReqs()})
		}
		groups = append(groups, group{sessionBudget, k, bothModels, allVariantReqs()})
		groups = append(groups, group{clusterBudget, k, []string{"spectre"}, []string{"unsafe", "hybrid"}})
		for _, s := range sampledSeeds {
			b := sampledBudget
			b.SampleSeed = s
			groups = append(groups, group{b, k, []string{"spectre"}, []string{"unsafe", "hybrid"}})
		}
	}
	// Detailed whole-window IPC, the baseline of sampled_err_pct.
	detailedIPC := map[string]float64{}
	err := harness.RunPool(context.Background(), 2, len(groups), func(ctx context.Context, gi int) error {
		g := groups[gi]
		wl, err := workload.ByName(g.kernel)
		if err != nil {
			return err
		}
		opt := harness.Options{WarmupInstrs: g.b.Warmup, MaxInstrs: g.b.Max, Workloads: []workload.Workload{wl}}
		for _, m := range g.models {
			opt.Models = append(opt.Models, models[m])
		}
		var sp *harness.SamplePlan
		if g.b.Sampled {
			opt.SimMode = harness.SimSampled
			cfg := harness.TunedSampleConfig(wl.Name, simpoint.Config{IntervalInstrs: g.b.SampleInterval, MaxK: g.b.SampleMaxK, Seed: g.b.SampleSeed})
			if sp, err = harness.BuildSamplePlan(wl, g.b.Warmup, g.b.Max, cfg); err != nil {
				return err
			}
		}
		res := &harness.Results{Opt: opt, Runs: map[harness.Key]core.Result{}}
		p := harness.RunParams{WarmupInstrs: g.b.Warmup, MaxInstrs: g.b.Max}
		for _, vr := range g.variantReqs {
			v, err := core.ParseVariant(vr)
			if err != nil {
				return err
			}
			opt.Variants = append(opt.Variants, v)
			for _, m := range opt.Models {
				var r core.Result
				if sp != nil {
					r, _, err = harness.RunSampledCell(ctx, 1, wl, v, m, core.Ablation{}, sp, p, harness.RunPolicy{}, nil)
				} else {
					r, err = harness.RunOne(wl, v, m, core.Ablation{}, p)
				}
				if err != nil {
					return fmt.Errorf("%s/%s/%s: %w", wl.Name, v, m, err)
				}
				res.Runs[harness.Key{Workload: wl.Name, Variant: v, Model: m}] = r
				if sp != nil && g.b.SampleSeed == sampledSeeds[0] {
					d, err := harness.RunOne(wl, v, m, core.Ablation{}, p)
					if err != nil {
						return err
					}
					mu.Lock()
					for _, seed := range sampledSeeds {
						b := g.b
						b.SampleSeed = seed
						detailedIPC[cellID(b, wl.Name, v.String(), m.String())] = d.IPC()
					}
					mu.Unlock()
				}
			}
		}
		res.Opt = opt
		for _, r := range res.Export().Runs {
			v, _ := core.ParseVariant(r.Variant)
			m, _ := modelNamed(r.Model)
			put(g.b, r, res.Runs[harness.Key{Workload: r.Workload, Variant: v, Model: m}])
		}
		fmt.Fprintf(os.Stderr, "reference: %s done\n", cellID(g.b, g.kernel, "*", "*"))
		return nil
	})
	if err != nil {
		return err
	}
	for id, d := range detailedIPC {
		c := ref.Cells[id]
		c.DetailedIPC = d
		ref.Cells[id] = c
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "reference: %d cells\n", len(ref.Cells))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
