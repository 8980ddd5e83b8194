package main

import (
	"math/rand"
	"time"

	"repro/internal/workload"
)

// Instruction budgets of the workloads' cells. paperBudget is the paper's
// (50k detailed warmup, 60k measured); sampledBudget's Max exceeds every
// kernel's natural length, so each sampled window runs to the kernel's
// halt — the longest window it allows.
var (
	paperBudget   = Budget{Warmup: 50_000, Max: 60_000}
	sessionBudget = Budget{Warmup: 2_000, Max: 6_000}
	clusterBudget = Budget{Warmup: 5_000, Max: 10_000}
	sampledBudget = Budget{Sampled: true, Warmup: 20_000, Max: 1_000_000, SampleInterval: 1_000, SampleMaxK: 4}
)

// sampledSeeds are the sampling seeds a sampled-grid sweep may draw.
var sampledSeeds = []uint64{1, 2, 3, 4}

// paperFillers are the seed-drawn fourth kernel of a paper-grid set.
// Every set is gcc_r (L2-resident) + x264_r (branchy) + mcf_r (DRAM-bound)
// + one filler. The fillers cost about the same host time (5.6-6.3 s of
// single-threaded simulation for their 16 cells on a 2-vCPU Xeon, against
// 8.5-14.4 s for the other three), so every set costs about the same. gcc_r and x264_r carry nearly all of
// Hybrid's Spectre overhead and the fillers none, so hybrid_overhead_pct
// is the same for every seed. omnetpp_r, the other DRAM-bound kernel,
// runs 15-20% slower beside a second simulation than its single-threaded
// cost predicts, which made sweep_s depend on the seed.
var paperFillers = []string{"namd_r", "lbm_r", "cactuBSSN_r"}

// paperGridKernels draws a paper-grid kernel set. The costliest kernels
// come first, so the sweep's last cells are short and both workers finish
// together; with a shuffled order the sweep time depended on which kernel
// came last.
func paperGridKernels(rng *rand.Rand) []string {
	return []string{"mcf_r", "gcc_r", "x264_r", paperFillers[rng.Intn(len(paperFillers))]}
}

// shuffledKernels is the whole suite in a seeded order.
func shuffledKernels(rng *rand.Rand) []string {
	ks := workload.Names()
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// sampledGridBudget is the budget of a run's i-th sampled-grid sweep. The
// sweeps cycle through every sampling seed from a seeded start, so each
// run samples with the same mix of plans.
func sampledGridBudget(start, i int) Budget {
	b := sampledBudget
	b.SampleSeed = sampledSeeds[(start+i)%len(sampledSeeds)]
	return b
}

// Session traffic. The suite splits into sessionGrids kernel pairs; a
// grid is a pair × all variants × both models at sessionBudget. Set-up
// preloads a seeded sessionPreloaded of the variants of every grid, so the
// cells left to simulate span every kernel whatever the seed.
const (
	sessionGrids     = 7
	sessionPreloaded = 2  // of the 8 variants of each grid
	sessionRate      = 16 // sweeps per second
	sessionLimit     = 250 * time.Millisecond
)

func gridKernels(g int) []string {
	names := workload.Names()
	return []string{names[2*g], names[2*g+1]}
}

// Session op kinds.
const (
	opSubset   = "subset"   // POST a variant/model subset of a preloaded grid
	opReexport = "reexport" // GET a preloaded grid's export again
	opDup      = "dup"      // two concurrent POSTs of one request
	opNew      = "new"      // POST one cell nobody has run yet
	opHeadline = "headline" // POST headlineOp: Unsafe+Hybrid × Spectre over the whole suite
)

// sessionOp is one scheduled operation of the session.
type sessionOp struct {
	Kind string
	Due  time.Duration // send time, from the session start
	// Workloads × Variants × Models is the request grid (POST kinds).
	Workloads, Variants, Models []string
	// Grid is the preloaded grid a re-export fetches.
	Grid int
}

// headlineOp is the request behind hybrid_overhead_pct. Set-up preloads
// it, so the session re-submits it as a cache hit and its cells never
// queue in front of the new cells.
func headlineOp() sessionOp {
	return sessionOp{Kind: opHeadline, Workloads: workload.Names(), Variants: []string{"unsafe", "hybrid"}, Models: []string{"spectre"}}
}

// sessionPlan is one seeded session: the variants preloaded per grid and
// the ops in send order.
type sessionPlan struct {
	Preload [][]string
	Ops     []sessionOp
}

// preloadOp is the request that preloaded grid g.
func (p sessionPlan) preloadOp(g int) sessionOp {
	return sessionOp{Workloads: gridKernels(g), Variants: p.Preload[g], Models: bothModels}
}

// newCellSlots are the (kernel, model) pairs session draws its new cells
// from: those whose cells cost about the same at sessionBudget (20-40 ms
// of single-threaded simulation on a 2-vCPU Xeon, against 15-220 ms over
// the whole suite), so the 90th percentile, which falls among the new
// cells, does not depend on which cells a seed draws.
var newCellSlots = [][2]string{
	{"lbm_r", "spectre"}, {"deepsjeng_r", "spectre"}, {"namd_r", "spectre"},
	{"x264_r", "spectre"}, {"cactuBSSN_r", "spectre"}, {"fotonik3d_r", "spectre"},
	{"namd_r", "futuristic"}, {"fotonik3d_r", "futuristic"}, {"perlbench_r", "futuristic"},
}

// planSession generates the session for a seed. Every sixth op simulates
// one new cell: spaced out, each runs alone on an otherwise idle worker,
// and the 90th percentile falls among those simulating sweeps.
// Re-exports of the same-sized preloaded grids are nearly three in four
// ops, so the median falls among them rather than on the boundary between
// two kinds of op, whatever the seed.
func planSession(seed int64, seconds float64) sessionPlan {
	rng := rand.New(rand.NewSource(seed))
	var plan sessionPlan
	preloaded := map[[2]string]bool{} // kernel, variant
	for g := 0; g < sessionGrids; g++ {
		var pre []string
		for _, vi := range rng.Perm(len(variants))[:sessionPreloaded] {
			pre = append(pre, variants[vi].req)
			for _, w := range gridKernels(g) {
				preloaded[[2]string{w, variants[vi].req}] = true
			}
		}
		plan.Preload = append(plan.Preload, pre)
	}
	// Each slot's unrun variants in a seeded order; the slots are visited
	// round-robin in a seeded order.
	type newCell struct{ w, v, m string }
	lists := make([][]newCell, len(newCellSlots))
	for i, sl := range newCellSlots {
		for _, vi := range rng.Perm(len(variants)) {
			v := variants[vi].req
			headline := sl[1] == "spectre" && (v == "unsafe" || v == "hybrid")
			if !preloaded[[2]string{sl[0], v}] && !headline {
				lists[i] = append(lists[i], newCell{sl[0], v, sl[1]})
			}
		}
	}
	var queue []newCell
	order := rng.Perm(len(lists))
	for round := 0; ; round++ {
		added := false
		for _, i := range order {
			if round < len(lists[i]) {
				queue = append(queue, lists[i][round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	takeFresh := func() sessionOp {
		c := queue[0]
		queue = queue[1:]
		return sessionOp{Workloads: []string{c.w}, Variants: []string{c.v}, Models: []string{c.m}}
	}
	subset := func() sessionOp {
		g := rng.Intn(sessionGrids)
		pre := plan.Preload[g]
		var vs []string
		for _, i := range rng.Perm(len(pre))[:1+rng.Intn(len(pre))] {
			vs = append(vs, pre[i])
		}
		ms := [][]string{{"spectre"}, {"futuristic"}, bothModels}[rng.Intn(3)]
		return sessionOp{Workloads: gridKernels(g), Variants: vs, Models: ms}
	}

	n := int(seconds * sessionRate)
	if n < 100 {
		n = 100
	}
	headline := 5 + rng.Intn(10)
	for i := 0; i < n; i++ {
		var op sessionOp
		r := rng.Float64()
		switch {
		case i == headline:
			op = headlineOp()
		case i%6 == 2 && len(queue) > 0:
			op = takeFresh()
			op.Kind = opNew
		case r < 0.90:
			op = sessionOp{Kind: opReexport, Grid: rng.Intn(sessionGrids)}
		case r < 0.96:
			op = subset()
			op.Kind = opSubset
		default:
			op = subset()
			if rng.Intn(2) == 0 && len(queue) > 0 {
				op = takeFresh() // an in-flight join
			}
			op.Kind = opDup
		}
		op.Due = time.Duration(float64(i) / sessionRate * float64(time.Second))
		plan.Ops = append(plan.Ops, op)
	}
	return plan
}
