package pipeline_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestInvariantsHoldDuringRun steps every registered scheme under both
// attack models cycle by cycle and checks the core's structural
// invariants after every cycle: the ROB window, rename map and every
// scheduling queue. Besides the Spectre gadget it runs seeded random
// programs, whose data-dependent branches and memory-order violations
// exercise the squash paths that rewind the tail and reuse seqs.
func TestInvariantsHoldDuringRun(t *testing.T) {
	type program struct {
		name string
		prog *isa.Program
		init func(*isa.Memory)
	}
	prog, init := pipeline.TaintedLoadGadget()
	progs := []program{{"gadget", prog, init}}
	for seed := int64(1); seed <= 12; seed++ {
		p, i := workload.RandomProgram(rand.New(rand.NewSource(seed)), workload.DefaultRandomOptions())
		progs = append(progs, program{fmt.Sprintf("random-%d", seed), p, i})
	}
	for _, v := range core.Registered() {
		for _, mdl := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
			for _, p := range progs {
				m := core.NewMachine(core.Config{Variant: v, Model: mdl}, p.prog, p.init)
				c := m.Core()
				for !c.Halted() && c.Cycle() < 300_000 {
					if err := c.Step(); err != nil {
						t.Fatalf("%v/%v/%s: %v", v, mdl, p.name, err)
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("%v/%v/%s cycle %d: %v", v, mdl, p.name, c.Cycle(), err)
					}
				}
				if !c.Halted() {
					t.Fatalf("%v/%v/%s: did not halt", v, mdl, p.name)
				}
			}
		}
	}
}
