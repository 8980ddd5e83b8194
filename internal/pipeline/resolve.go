package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obs"
)

// resolve runs the untaint-driven machinery once per cycle: it computes
// the visibility frontier, then — oldest first — applies parked squashes
// whose predicates untainted, branch resolutions (delayed for tainted
// predicates per STT's implicit-channel rule), Obl-Ld state transitions,
// and SDO floating-point resolutions.
func (c *Core) resolve() {
	c.frontier = c.computeFrontier()
	c.applyParked()
	c.resolveBranches()
	c.stepOblAll()
	c.resolveFPSDO()
}

// computeFrontier returns the first sequence number that is still
// speculative under the configured attack model. Everything older is
// non-speculative: its taint roots compare as untainted.
//
// Spectre: an access instruction reaches its visibility point when all
// older control-flow instructions have resolved (and their resolution
// effects applied — a resolved-but-parked branch can still squash).
//
// Futuristic: when nothing older can squash it for any reason: branches,
// stores with unresolved addresses (memory-order violations), loads whose
// own value/validation story is not finished, unresolved SDO operations,
// and parked squashes.
//
// Each kind of blocker lives in its own age-ordered queue, so the
// frontier is the oldest of the queues' first blockers: branches in brq;
// pending squashes, which only loads carry, in lq; and, under
// Futuristic, unresolved store addresses in sq, unfinished loads in lq
// and unresolved SDO FP operations (all of fpq).
func (c *Core) computeFrontier() uint64 {
	f := c.tailSeq
	for _, seq := range c.brq {
		if !c.entry(seq).effectApplied {
			f = seq
			break
		}
	}
	futuristic := c.cfg.Model == Futuristic
	for _, seq := range c.lq {
		if seq >= f {
			break
		}
		if e := c.entry(seq); e.pendingSq || futuristic && loadUnfinished(e) {
			f = seq
			break
		}
	}
	if !futuristic {
		return f
	}
	for _, seq := range c.sq {
		if seq >= f {
			break
		}
		if e := c.entry(seq); e.isStore() && !e.addrValid {
			f = seq
			break
		}
	}
	if len(c.fpq) > 0 && c.fpq[0] < f {
		f = c.fpq[0]
	}
	return f
}

// loadUnfinished reports whether a load's own value/validation story can
// still squash it: a normal load before its value binds, an Obl-Ld
// before it resolves.
func loadUnfinished(e *robEntry) bool {
	if e.obl != oblNone {
		return e.obl != oblResolved
	}
	return e.state != stDone
}

// applyParked applies, oldest first, every parked squash whose predicate
// root has untainted.
func (c *Core) applyParked() {
	for {
		best := -1
		for i, p := range c.parked {
			if p.from >= c.tailSeq {
				continue // squashed away already; pruned below
			}
			if p.vpSelf {
				if c.frontier < p.from {
					continue // the load has not reached its VP yet
				}
			} else if c.tainted(p.root) {
				continue
			}
			if best == -1 || p.from < c.parked[best].from {
				best = i
			}
		}
		if best == -1 {
			break
		}
		p := c.parked[best]
		c.parked = append(c.parked[:best], c.parked[best+1:]...)
		c.squash(p.from, p.cause, p.refetch)
	}
	// Prune entries referring to already-squashed instructions.
	kept := c.parked[:0]
	for _, p := range c.parked {
		if p.from < c.tailSeq {
			kept = append(kept, p)
		}
	}
	c.parked = kept
}

// resolveBranches applies branch resolution effects, oldest first. Under
// STT/SDO a tainted predicate parks the resolution (and the predictor
// update) until it untaints — the resolution-based implicit channel rule.
func (c *Core) resolveBranches() {
	for _, seq := range c.brq {
		e := c.entry(seq)
		if !e.resolved || e.effectApplied {
			continue
		}
		if c.schemeTaint && !c.cfg.NoImplicitChannelProtection && c.tainted(e.destRoot) {
			if e.delayedSince == 0 {
				e.delayedSince = c.cycle
				c.stats.DelayedResolutions++
			}
			continue
		}
		e.effectApplied = true
		c.stats.BranchesResolved++
		if c.obs.On(obs.ClassBranch) {
			c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassBranch, Kind: "resolve-branch",
				Seq: e.seq, PC: e.pc,
				Detail: fmt.Sprintf("seq=%d pc=%d taken=%v mispredicted=%v target=%d",
					e.seq, e.pc, e.actualTaken, e.mispredicted, e.actualTarget)})
		}
		if e.mispredicted {
			c.stats.BranchMispredicts++
			c.squash(e.seq+1, sqBranch, e.actualTarget)
		}
		c.bp.Update(c.pcAddr(e.pc), e.actualTaken, e.mispredicted, e.bpSnap)
		if e.mispredicted {
			return // younger state is gone; nothing left to scan
		}
	}
}

// resolveFPSDO resolves SDO floating-point operations whose arguments have
// untainted, oldest first: success trains nothing (the static predictor
// has no state); failure squashes starting at the operation, which then
// re-executes on the normal (data-dependent latency) path.
func (c *Core) resolveFPSDO() {
	if len(c.fpq) == 0 {
		return
	}
	kept := c.fpq[:0]
	for _, seq := range c.fpq {
		e := c.entry(seq)
		if c.tainted(argsRoot(e)) {
			kept = append(kept, seq)
			continue
		}
		e.effectApplied = true
		if e.fpFail {
			c.stats.FPSDOFail++
			if c.obs.On(obs.ClassFP) {
				c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassFP, Kind: "fp-sdo-fail",
					Seq: e.seq, PC: e.pc,
					Detail: fmt.Sprintf("seq=%d pc=%d %v subnormal operands", e.seq, e.pc, e.in)})
			}
			c.fpq = kept // the squash discards every younger entry
			c.squash(e.seq, sqFPFail, e.pc)
			return
		}
	}
	c.fpq = kept
}

// addFPSDO records an SDO FP operation whose resolution is now pending.
// Issue is out of order, so the seq is inserted at its age position.
func (c *Core) addFPSDO(seq uint64) {
	i := len(c.fpq)
	for i > 0 && c.fpq[i-1] > seq {
		i--
	}
	c.fpq = append(c.fpq, 0)
	copy(c.fpq[i+1:], c.fpq[i:])
	c.fpq[i] = seq
}

// argsRoot returns the taint root of an instruction's source operands
// (for fpSDO entries destRoot holds exactly that).
func argsRoot(e *robEntry) uint64 { return e.destRoot }

// squash discards every instruction with seq >= from, repairs the rename
// map and branch-history state, redirects fetch to refetch, and records
// statistics.
func (c *Core) squash(from uint64, cause squashCause, refetch int) {
	if from < c.headSeq {
		panic("pipeline: squash of committed instructions")
	}
	c.stats.Squashes[cause]++
	if c.obs.On(obs.ClassSquash) {
		c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassSquash, Kind: "squash",
			Seq: from, PC: refetch,
			Detail: fmt.Sprintf("from=%d cause=%s refetch-pc=%d tail-was=%d",
				from, squashCauseNames[cause], refetch, c.tailSeq)})
	}

	if from < c.tailSeq {
		c.stats.SquashedInstrs += c.tailSeq - from
		restored := false
		var snap = c.entry(from).bpSnap // placeholder; fixed in the loop below
		for seq := c.tailSeq; seq > from; {
			seq--
			e := c.entry(seq)
			if e.hasDest {
				c.renameMap[e.in.Rd] = e.prevProd
			}
			if e.in.Op.IsCondBranch() {
				snap = e.bpSnap
				restored = true
			}
		}
		if restored {
			c.bp.Restore(snap)
		}

		// Trimming only shortens the ordered queues, never writes them:
		// issue may be mid-walk over the IQ when a store's check squashes.
		for len(c.iq) > 0 && c.iq[len(c.iq)-1].seq >= from {
			c.iq = c.iq[:len(c.iq)-1]
		}
		c.lq = trimSuffix(c.lq, from)
		c.sq = trimSuffix(c.sq, from)
		c.brq = trimSuffix(c.brq, from)
		c.fpq = trimSuffix(c.fpq, from)
		kept := c.exec[:0]
		for _, s := range c.exec {
			if s < from {
				kept = append(kept, s)
			}
		}
		c.exec = kept

		parked := c.parked[:0]
		for _, p := range c.parked {
			if p.from < from {
				parked = append(parked, p)
			}
		}
		c.parked = parked

		c.tailSeq = from
	}

	if c.specActive {
		c.scheme.OnSquash(c, from)
	}

	// The frontend redirect happens even when no ROB entry is younger than
	// the squash point: wrong-path instructions may still sit in the fetch
	// buffer.
	c.fetchBuf = c.fetchBuf[:0]
	c.fetchPC = refetch
	c.fetchHalted = false
	c.fetchLine = ^uint64(0)
	if c.fetchStallUntil < c.cycle+1 {
		c.fetchStallUntil = c.cycle + 1 // one-cycle redirect bubble
	}
}

// trimSuffix removes seqs >= from from an age-ordered queue.
func trimSuffix(q []uint64, from uint64) []uint64 {
	for len(q) > 0 && q[len(q)-1] >= from {
		q = q[:len(q)-1]
	}
	return q
}

// popFront removes an age-ordered queue's oldest seq by copying the rest
// down, so the queue keeps its capacity and appends never reallocate.
func popFront(q []uint64) []uint64 { return q[:copy(q, q[1:])] }

// commit retires completed instructions in order, applying stores and
// flushes to the architectural memory and the cache hierarchy.
func (c *Core) commit() {
	for n := 0; n < c.cfg.Width; n++ {
		if c.headSeq == c.tailSeq {
			return
		}
		e := c.entry(c.headSeq)
		if e.pendingSq {
			return // a parked squash will remove this instruction's path
		}
		switch {
		case e.in.Op == isa.OpHalt:
			c.halted = true
			c.stats.Committed++
			c.lastCommitCycle = c.cycle
			c.headSeq++
			return
		case e.in.Op.IsCondBranch():
			if !e.effectApplied {
				return
			}
		case e.isStore():
			if !e.addrValid || !e.sqDataReady {
				return
			}
			isa.StoreValue(c.data, e.in.Op, e.addr, e.sqData)
			c.port.Store(c.cycle, e.addr)
		case e.in.Op == isa.OpFlush:
			// Address sources are committed by now; read the regfile.
			c.port.Flush(c.regs[e.in.Rs] + uint64(e.in.Imm))
		case e.isLoad():
			if e.state != stDone {
				return
			}
			if e.obl != oblNone && e.obl != oblResolved {
				if e.valInFlight && !e.exposure {
					c.stats.ValidationStall++
				}
				return
			}
			if e.valInFlight && !e.exposure {
				// Validation must complete before retirement (§V-C1);
				// exposures retire immediately.
				c.stats.ValidationStall++
				return
			}
		case e.fpSDO && !e.effectApplied:
			return // resolution (and possible squash) still pending
		default:
			if e.state != stDone {
				return
			}
		}
		if e.hasDest {
			c.regs[e.in.Rd] = e.destVal
			if c.renameMap[e.in.Rd] == int64(e.seq) {
				c.renameMap[e.in.Rd] = -1
			}
		}
		if len(c.lq) > 0 && c.lq[0] == e.seq {
			c.lq = popFront(c.lq)
		}
		if len(c.sq) > 0 && c.sq[0] == e.seq {
			c.sq = popFront(c.sq)
		}
		if len(c.brq) > 0 && c.brq[0] == e.seq {
			c.brq = popFront(c.brq)
		}
		if c.obs.On(obs.ClassCommit) {
			c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassCommit, Kind: "commit",
				Seq: e.seq, PC: e.pc,
				Detail: fmt.Sprintf("seq=%d pc=%d %v val=%#x", e.seq, e.pc, e.in, e.destVal)})
		}
		if c.specActive {
			c.scheme.OnCommit(c, e)
		}
		c.headSeq++
		c.stats.Committed++
		c.lastCommitCycle = c.cycle
	}
}
