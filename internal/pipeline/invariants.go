package pipeline

import (
	"fmt"

	"repro/internal/isa"
)

// CheckInvariants verifies internal consistency of the core's speculative
// state. It is exercised by tests after every cycle of randomized runs; a
// violation indicates a bookkeeping bug (rename repair, queue trimming,
// frontier monotonicity within a squash-free region, the scheduling
// queues matching the ROB they index, ...).
func (c *Core) CheckInvariants() error {
	if c.tailSeq < c.headSeq {
		return fmt.Errorf("pipeline: tail %d < head %d", c.tailSeq, c.headSeq)
	}
	if c.tailSeq-c.headSeq > uint64(c.cfg.ROBSize) {
		return fmt.Errorf("pipeline: ROB window %d exceeds capacity %d",
			c.tailSeq-c.headSeq, c.cfg.ROBSize)
	}

	// The rename map points at live producers that write the mapped
	// register, at committed producers (squash repair may restore a
	// mapping whose producer has since retired; reads then fall back to
	// the architectural regfile), or at the regfile sentinel.
	for r, prod := range c.renameMap {
		if prod < 0 || uint64(prod) < c.headSeq {
			continue
		}
		seq := uint64(prod)
		if seq >= c.tailSeq {
			return fmt.Errorf("pipeline: renameMap[r%d] = %d beyond tail %d", r, seq, c.tailSeq)
		}
		e := c.entry(seq)
		if !e.hasDest || e.in.Rd != isa.Reg(r) {
			return fmt.Errorf("pipeline: renameMap[r%d] = %d, but that entry writes r%d (hasDest=%v)",
				r, seq, e.in.Rd, e.hasDest)
		}
	}

	// LQ and SQ are age-ordered subsets of the live window containing
	// exactly the live loads / stores+flushes.
	checkQueue := func(name string, q []uint64, member func(*robEntry) bool) error {
		prev := uint64(0)
		seen := make(map[uint64]bool, len(q))
		for _, seq := range q {
			if seq <= prev {
				return fmt.Errorf("pipeline: %s not age-ordered at %d", name, seq)
			}
			prev = seq
			if !c.live(seq) {
				return fmt.Errorf("pipeline: %s holds dead seq %d", name, seq)
			}
			if !member(c.entry(seq)) {
				return fmt.Errorf("pipeline: %s holds wrong-kind seq %d (%v)", name, seq, c.entry(seq).in)
			}
			seen[seq] = true
		}
		for seq := c.headSeq; seq < c.tailSeq; seq++ {
			if member(c.entry(seq)) && !seen[seq] {
				return fmt.Errorf("pipeline: %s is missing live seq %d (%v)", name, seq, c.entry(seq).in)
			}
		}
		return nil
	}
	if err := checkQueue("LQ", c.lq, func(e *robEntry) bool { return e.isLoad() }); err != nil {
		return err
	}
	if err := checkQueue("SQ", c.sq, func(e *robEntry) bool {
		return e.isStore() || e.in.Op == isa.OpFlush
	}); err != nil {
		return err
	}

	if err := checkQueue("BRQ", c.brq, func(e *robEntry) bool { return e.in.Op.IsCondBranch() }); err != nil {
		return err
	}
	// fpq holds exactly the SDO FP operations whose resolution is
	// pending; its length is the pending count resolveFPSDO tests.
	if err := checkQueue("FPQ", c.fpq, func(e *robEntry) bool { return e.fpSDO && !e.effectApplied }); err != nil {
		return err
	}

	// The IQ holds live, un-issued instructions in age order; each wait
	// record names an older producer (or none).
	prev := uint64(0)
	for _, q := range c.iq {
		if q.seq <= prev {
			return fmt.Errorf("pipeline: IQ not age-ordered at %d", q.seq)
		}
		prev = q.seq
		if !c.live(q.seq) {
			return fmt.Errorf("pipeline: IQ holds dead seq %d", q.seq)
		}
		if st := c.entry(q.seq).state; st != stWaiting {
			return fmt.Errorf("pipeline: IQ holds seq %d in state %d", q.seq, st)
		}
		if q.wait >= q.seq {
			return fmt.Errorf("pipeline: IQ seq %d waits on producer %d, not older", q.seq, q.wait)
		}
	}

	// The completion list holds exactly the live timed executions: every
	// executing entry that is neither an Obl-Ld nor a store, once.
	timed := func(e *robEntry) bool { return e.state == stExecuting && e.obl == oblNone && !e.isStore() }
	inExec := make(map[uint64]bool, len(c.exec))
	for _, seq := range c.exec {
		if !c.live(seq) {
			return fmt.Errorf("pipeline: completion list holds dead seq %d", seq)
		}
		if inExec[seq] {
			return fmt.Errorf("pipeline: completion list holds seq %d twice", seq)
		}
		inExec[seq] = true
		if e := c.entry(seq); !timed(e) {
			return fmt.Errorf("pipeline: completion list holds seq %d in state %d (obl=%d, %v)",
				seq, e.state, e.obl, e.in)
		}
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		if timed(c.entry(seq)) && !inExec[seq] {
			return fmt.Errorf("pipeline: completion list is missing executing seq %d", seq)
		}
	}

	// Parked squashes reference live instructions.
	for _, p := range c.parked {
		if p.from >= c.tailSeq {
			return fmt.Errorf("pipeline: parked squash for dead seq %d", p.from)
		}
	}

	// Entry-level sanity for the live window.
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		e := c.entry(seq)
		if e.seq != seq {
			return fmt.Errorf("pipeline: ROB slot for %d holds seq %d", seq, e.seq)
		}
		if e.state == stDone && e.hasDest && e.destRoot > e.seq {
			return fmt.Errorf("pipeline: seq %d has taint root %d younger than itself", seq, e.destRoot)
		}
		if e.obl != oblNone && !e.isLoad() {
			return fmt.Errorf("pipeline: non-load seq %d has Obl state %d", seq, e.obl)
		}
	}

	// The queue-based frontier agrees with its definition: the first
	// live entry that can still be squashed under the attack model.
	walk := c.tailSeq
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		if c.blocksFrontier(c.entry(seq)) {
			walk = seq
			break
		}
	}
	if f := c.computeFrontier(); f != walk {
		return fmt.Errorf("pipeline: queue frontier %d, ROB walk finds %d", f, walk)
	}

	// The frontier never exceeds the allocation point.
	if c.frontier > c.tailSeq {
		return fmt.Errorf("pipeline: frontier %d beyond tail %d", c.frontier, c.tailSeq)
	}
	return nil
}

// blocksFrontier is computeFrontier's definition for one entry.
func (c *Core) blocksFrontier(e *robEntry) bool {
	switch {
	case e.pendingSq:
		return true
	case c.cfg.Model == Spectre:
		return e.in.Op.IsCondBranch() && !e.effectApplied
	case e.isBranch() && !e.effectApplied,
		e.isStore() && !e.addrValid,
		e.isLoad() && loadUnfinished(e),
		e.fpSDO && !e.effectApplied:
		return true
	}
	return false
}
