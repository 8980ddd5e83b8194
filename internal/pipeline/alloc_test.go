package pipeline_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// maxSteadyAllocsPerKInstr bounds the detailed core's steady-state heap
// allocation rate. The rename and commit queues are popped by copying
// down and rename reads source registers into a stack array, so a warm
// core allocates (next to) nothing per instruction; before those fixes
// the rate was about 1500 allocations per thousand instructions.
const maxSteadyAllocsPerKInstr = 10

// TestSteadyStateAllocsPerKInstr measures Machine.Run on mcf_r at two
// measurement budgets and divides the difference in heap allocations by
// the difference in committed instructions: setup and warmup cost the
// same in both runs, so what remains is the steady-state rate.
func TestSteadyStateAllocsPerKInstr(t *testing.T) {
	w, err := workload.ByName("mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	prog, init := w.Build()
	run := func(v core.Variant, budget uint64) (mallocs, committed uint64) {
		m := core.NewMachine(core.Config{Variant: v, Model: pipeline.Spectre,
			WarmupInstrs: 20_000, MaxInstrs: budget}, prog, init)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := m.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, r.Committed
	}
	for _, v := range []core.Variant{core.Unsafe, core.STTLdFp, core.Hybrid} {
		shortAllocs, shortInstrs := run(v, 20_000)
		longAllocs, longInstrs := run(v, 120_000)
		if longInstrs <= shortInstrs {
			t.Fatalf("%v: long run committed %d, short %d", v, longInstrs, shortInstrs)
		}
		extra := float64(0)
		if longAllocs > shortAllocs {
			extra = float64(longAllocs - shortAllocs)
		}
		perK := extra / (float64(longInstrs-shortInstrs) / 1000)
		t.Logf("%v: %.2f allocs/kinstr in steady state", v, perK)
		if perK > maxSteadyAllocsPerKInstr {
			t.Errorf("%v: %.1f allocs per kilo-instruction in steady state, bound %d",
				v, perK, maxSteadyAllocsPerKInstr)
		}
	}
}
