package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obs"
)

// issue selects ready instructions from the issue queue in age order,
// subject to functional-unit availability and the active protection
// policy's transmitter rules, and begins their execution. A slot whose
// recorded producer has not bound its value is skipped without being
// evaluated: the visit would fail on that operand with no side effect.
// Every other slot is visited, so taint-delayed transmitters are still
// charged their per-cycle delay.
func (c *Core) issue() {
	issued := 0
	kept := c.iq[:0]
	for _, q := range c.iq {
		if q.seq >= c.tailSeq {
			break // squashed by a store's memory-order check this cycle
		}
		if issued >= c.cfg.Width || !c.produced(q.wait) {
			kept = append(kept, q)
			continue
		}
		e := c.entry(q.seq)
		ok := false
		switch {
		case e.in.Op.IsCondBranch():
			ok = c.issueBranch(e)
		case e.isLoad():
			ok = c.issueLoad(e)
		case e.isStore():
			ok = c.issueStore(e)
		case e.in.Op.IsFP():
			ok = c.issueFP(e)
		default:
			ok = c.issueALU(e)
		}
		if !ok {
			q.wait = c.pendingProducer(e)
			kept = append(kept, q)
			continue
		}
		issued++
		if e.state == stExecuting && e.obl == oblNone && !e.isStore() {
			c.exec = append(c.exec, q.seq)
		}
	}
	c.iq = kept
}

func (c *Core) issueALU(e *robEntry) bool {
	// OpRdCyc is fully serialising (lfence;rdtsc;lfence): it issues only
	// once it is the oldest instruction, so timing reads order with every
	// older access — which is what makes the in-simulator covert-channel
	// measurements meaningful.
	if e.in.Op == isa.OpRdCyc && e.seq != c.headSeq {
		return false
	}
	ready, vals, root := c.srcsReady(e)
	if !ready || c.intPortsBusy >= c.cfg.IntALUs {
		return false
	}
	c.intPortsBusy++
	e.destVal = isa.EvalALU(e.in, vals[0], vals[1], c.cycle)
	e.destRoot = root
	e.doneAt = c.cycle + opLatency(e.in, vals[0], vals[1], e.destVal, false)
	e.state = stExecuting
	return true
}

func (c *Core) issueFP(e *robEntry) bool {
	ready, vals, root := c.srcsReady(e)
	if !ready {
		return false
	}
	isTx := e.in.Op.IsFPTransmitter() && c.cfg.FPTransmitters
	if isTx && c.tainted(root) {
		// The scheme's transmitter rule (STT delay, SDO fast-path DO
		// execution); handled=false falls through to the normal path.
		if issued, handled := c.scheme.IssueTaintedFP(c, e, vals, root); handled {
			return issued
		}
	}
	if c.fpPortsBusy >= c.cfg.FPUnits {
		return false
	}
	c.fpPortsBusy++
	e.destVal = isa.EvalALU(e.in, vals[0], vals[1], c.cycle)
	e.destRoot = root
	if isa.FPSlowPath(e.in.Op, vals[0], vals[1], e.destVal) {
		// An operand-dependent slow-path execution: the timing channel the
		// FP transmitter protections exist to close.
		c.stats.FPSlowPathExecs++
	}
	e.doneAt = c.cycle + opLatency(e.in, vals[0], vals[1], e.destVal, false)
	e.state = stExecuting
	return true
}

func (c *Core) issueBranch(e *robEntry) bool {
	ready, vals, root := c.srcsReady(e)
	if !ready || c.intPortsBusy >= c.cfg.IntALUs {
		return false
	}
	c.intPortsBusy++
	e.actualTaken = isa.BranchTaken(e.in.Op, vals[0], vals[1])
	if e.actualTaken {
		e.actualTarget = e.in.Target
	} else {
		e.actualTarget = e.pc + 1
	}
	e.mispredicted = e.actualTaken != e.predTaken
	e.destRoot = root // predicate root: gates the resolution effects
	e.doneAt = c.cycle + latALU
	e.state = stExecuting
	return true
}

func (c *Core) issueStore(e *robEntry) bool {
	// AGU: the address source must be ready; data may bind later.
	v, ok, root := c.operandInfo(e.src[0])
	if !ok || c.memPortsBusy >= c.cfg.MemPorts {
		return false
	}
	c.memPortsBusy++
	e.addr = v + uint64(e.in.Imm)
	e.addrValid = true
	e.addrRoot = root
	if dv, dok, _ := c.operandInfo(e.src[1]); dok {
		e.sqData = dv
		e.sqDataReady = true
		e.state = stDone
	} else {
		e.state = stExecuting
		e.doneAt = ^uint64(0) // completed by data bind, not by time
	}
	c.stats.Stores++
	if c.obs.On(obs.ClassIssue) {
		c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassIssue, Kind: "issue-store",
			Seq: e.seq, PC: e.pc, Addr: e.addr,
			Detail: fmt.Sprintf("seq=%d pc=%d addr=%#x data-ready=%v", e.seq, e.pc, e.addr, e.sqDataReady)})
	}
	c.checkStoreViolation(e)
	return true
}

// completeExecution retires finished timed executions into the "done"
// state and binds late store data. Completions never depend on each
// other, and a store's data producer is older than the store, so binding
// after every completion matches an oldest-first walk of the ROB.
func (c *Core) completeExecution() {
	kept := c.exec[:0]
	for _, seq := range c.exec {
		e := c.entry(seq)
		if c.cycle < e.doneAt {
			kept = append(kept, seq)
			continue
		}
		e.state = stDone
		if e.in.Op.IsCondBranch() {
			e.resolved = true
		}
	}
	c.exec = kept
	for _, seq := range c.sq {
		e := c.entry(seq)
		if e.isStore() && e.addrValid && !e.sqDataReady {
			if dv, ok, _ := c.operandInfo(e.src[1]); ok {
				e.sqData = dv
				e.sqDataReady = true
				e.state = stDone
			}
		}
	}
}
