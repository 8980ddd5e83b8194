package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Core is one simulated out-of-order core executing a program against a
// memory image and a memory-system port.
type Core struct {
	cfg  Config
	prog *isa.Program
	data *isa.Memory
	port MemPort
	bp   *bpred.Predictor

	scheme      Scheme      // active protection scheme (never nil)
	schemeTaint bool        // cached scheme.TracksTaint()
	specPort    SpecMemPort // non-nil when specActive
	specActive  bool        // scheme.SpecMode() != SpecOff

	regs      [isa.NumRegs]uint64
	renameMap [isa.NumRegs]int64 // producer seq, -1 = committed regfile

	// The ROB is a power-of-two ring indexed by seq&robMask; cfg.ROBSize
	// stays the capacity. The queues below hold seqs of live entries and
	// answer the per-cycle questions without walking the ROB (see
	// DESIGN.md, "Detailed-core scheduling"): all but exec are
	// age-ordered, appended in seq order and trimmed as a suffix on
	// squash.
	rob     []robEntry
	robMask uint64
	headSeq uint64 // oldest live seq
	tailSeq uint64 // next seq to allocate
	iq      []iqSlot
	lq      []uint64
	sq      []uint64 // stores and flushes
	brq     []uint64 // conditional branches
	fpq     []uint64 // SDO FP operations whose resolution is pending
	exec    []uint64 // unordered: issued entries that complete by time
	parked  []parkedSquash
	fpPortsBusy,
	intPortsBusy,
	memPortsBusy int

	fetchPC         int
	fetchHalted     bool
	fetchStallUntil uint64
	fetchLine       uint64 // last I-cache line fetched (0 = none yet)
	fetchBuf        []fetchSlot

	obs *obs.Recorder

	cycle           uint64
	frontier        uint64
	lastCommitCycle uint64
	halted          bool

	stats    Stats
	interval intervalState
}

// parkedSquash is a squash whose application is delayed until its predicate
// untaints (STT's resolution-based implicit channel rule).
type parkedSquash struct {
	from    uint64 // squash everything >= from
	root    uint64 // apply once root < frontier (or, with vpSelf, once frontier >= from)
	vpSelf  bool   // the predicate is the squashed load's own visibility point
	cause   squashCause
	refetch int
}

type fetchSlot struct {
	pc         int
	in         isa.Instr
	predTaken  bool
	predTarget int
	snap       bpred.Snapshot
	isCond     bool
}

// New builds a core. prog is the program, data the architectural memory
// (shared with the functional golden model's semantics), port the memory
// system.
func New(cfg Config, prog *isa.Program, data *isa.Memory, port MemPort) *Core {
	if cfg.Width <= 0 {
		panic("pipeline: config must come from DefaultConfig")
	}
	if cfg.Scheme == nil {
		cfg.Scheme = schemeFor(cfg.Protection)
	}
	if _, sdo := cfg.Scheme.(schemeSDO); sdo && cfg.LocPred == nil {
		panic("pipeline: ProtSDO requires a location predictor")
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = 200_000
	}
	c := &Core{
		cfg:    cfg,
		prog:   prog,
		data:   data,
		port:   port,
		bp:     bpred.New(cfg.BP),
		rob:    make([]robEntry, ringSize(cfg.ROBSize)),
		scheme: cfg.Scheme,
	}
	c.robMask = uint64(len(c.rob) - 1)
	c.schemeTaint = c.scheme.TracksTaint()
	if m := c.scheme.SpecMode(); m != mem.SpecOff {
		sp, ok := port.(SpecMemPort)
		if !ok {
			panic(fmt.Sprintf("pipeline: scheme %s needs a SpecMemPort; %T does not implement it",
				c.scheme.Name(), port))
		}
		sp.SetSpecMode(m)
		c.specPort = sp
		c.specActive = true
	}
	for i := range c.renameMap {
		c.renameMap[i] = -1
	}
	c.headSeq, c.tailSeq = 1, 1
	c.frontier = 1
	if h, ok := port.(*mem.Hierarchy); ok {
		h.OnInvalidate = c.onInvalidate
	}
	return c
}

// SetInvalidateHook registers the core's consistency-snoop handler on a
// hierarchy that is not directly the port (e.g. a coherence.Core wrapper).
func (c *Core) SetInvalidateHook(h *mem.Hierarchy) { h.OnInvalidate = c.onInvalidate }

// Regs returns the committed architectural registers.
func (c *Core) Regs() [isa.NumRegs]uint64 { return c.regs }

// Predictor exposes the core's branch predictor (warmup checkpoint
// capture/restore and tests).
func (c *Core) Predictor() *bpred.Predictor { return c.bp }

// RestoreArch seeds the core's committed architectural state from a
// functional-warmup checkpoint: committed registers and the PC fetch
// resumes from. It must be called before the first Step. halted marks a
// program that already committed its halt during warmup; the core then
// starts (and stays) halted.
func (c *Core) RestoreArch(regs [isa.NumRegs]uint64, pc int, halted bool) {
	c.regs = regs
	c.fetchPC = pc
	if halted {
		c.halted = true
		c.fetchHalted = true
	}
}

// Stats returns the statistics gathered so far.
func (c *Core) Stats() Stats { return c.stats }

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Halted reports whether the program has committed its halt.
func (c *Core) Halted() bool { return c.halted }

// entry returns the ROB entry for a live seq.
func (c *Core) entry(seq uint64) *robEntry { return &c.rob[seq&c.robMask] }

// ringSize is the smallest power of two holding n entries.
func ringSize(n int) int {
	r := 1
	for r < n {
		r <<= 1
	}
	return r
}

func (c *Core) live(seq uint64) bool { return seq >= c.headSeq && seq < c.tailSeq }

// pcAddr synthesises the byte address of an instruction index, feeding the
// branch predictor and I-cache.
func (c *Core) pcAddr(pc int) uint64 { return c.cfg.CodeBase + uint64(pc)*8 }

// Run simulates until halt or until a configured bound is hit, returning
// the final statistics.
func (c *Core) Run() (Stats, error) {
	for !c.halted {
		if c.cfg.MaxCycles > 0 && c.cycle >= c.cfg.MaxCycles {
			break
		}
		if c.cfg.MaxInstrs > 0 && c.stats.Committed >= c.cfg.MaxInstrs {
			break
		}
		if err := c.Step(); err != nil {
			return c.stats, err
		}
	}
	c.stats.Halted = c.halted
	return c.stats, nil
}

// checkInterval is how often (in cycles) Step polls Config.Check. A
// power of two so the test is one mask; ~4k cycles keeps wall-clock
// deadline/stall detection responsive at simulation speeds of millions
// of cycles per second while staying invisible in profiles.
const checkInterval = 4096

// Step advances the core by one cycle.
func (c *Core) Step() error {
	c.cycle++
	if c.cfg.Check != nil && c.cycle&(checkInterval-1) == 0 {
		if err := c.cfg.Check(c.cycle, c.stats.Committed); err != nil {
			return err
		}
	}
	if c.cycle-c.lastCommitCycle > c.cfg.WatchdogCycles {
		return fmt.Errorf("pipeline: watchdog: no commit for %d cycles at cycle %d (head=%d tail=%d head instr %v)",
			c.cfg.WatchdogCycles, c.cycle, c.headSeq, c.tailSeq, c.headInstrDesc())
	}
	c.stats.Cycles = c.cycle

	c.intPortsBusy, c.fpPortsBusy, c.memPortsBusy = 0, 0, 0

	c.commit()
	c.completeExecution()
	c.resolve() // frontier, branch/SDO resolution, parked squashes
	c.issue()
	c.rename()
	c.fetch()
	if c.interval.every != 0 {
		c.sampleInterval()
	}
	return nil
}

func (c *Core) headInstrDesc() string {
	if c.headSeq >= c.tailSeq {
		return "<empty ROB>"
	}
	e := c.entry(c.headSeq)
	return fmt.Sprintf("%v (state=%d obl=%d pc=%d)", e.in, e.state, e.obl, e.pc)
}

// --- Fetch ---

func (c *Core) fetch() {
	if c.fetchHalted || c.cycle < c.fetchStallUntil {
		return
	}
	fetched := 0
	for fetched < c.cfg.Width && len(c.fetchBuf) < 2*c.cfg.Width {
		addr := c.pcAddr(c.fetchPC)
		line := mem.LineAddr(addr)
		if line != c.fetchLine {
			r := c.port.FetchAccess(c.cycle, addr)
			c.fetchLine = line
			if r.Level != mem.L1 {
				// I-cache miss: fetch stalls until the line arrives.
				c.fetchStallUntil = r.Done
				return
			}
		}
		in := c.prog.At(c.fetchPC)
		slot := fetchSlot{pc: c.fetchPC, in: in}
		switch {
		case in.Op == isa.OpHalt:
			c.fetchBuf = append(c.fetchBuf, slot)
			c.fetchHalted = true
			c.stats.Fetched++
			return
		case in.Op == isa.OpJmp:
			slot.predTaken, slot.predTarget = true, in.Target
			c.fetchPC = in.Target
		case in.Op.IsCondBranch():
			taken, snap := c.bp.PredictDirection(addr)
			slot.isCond = true
			slot.predTaken, slot.snap = taken, snap
			if taken {
				slot.predTarget = in.Target
				c.fetchPC = in.Target
			} else {
				slot.predTarget = c.fetchPC + 1
				c.fetchPC++
			}
		default:
			c.fetchPC++
		}
		c.fetchBuf = append(c.fetchBuf, slot)
		c.stats.Fetched++
		fetched++
	}
}

// --- Rename / dispatch ---

func (c *Core) rename() {
	n := 0
	for ; n < c.cfg.Width && n < len(c.fetchBuf); n++ {
		if c.tailSeq-c.headSeq >= uint64(c.cfg.ROBSize) {
			break // ROB full
		}
		slot := &c.fetchBuf[n]
		in := slot.in
		needsIQ := in.Op != isa.OpNop && in.Op != isa.OpHalt && in.Op != isa.OpFlush && in.Op != isa.OpJmp
		if needsIQ && len(c.iq) >= c.cfg.IQSize {
			break
		}
		if in.Op.IsLoad() && len(c.lq) >= c.cfg.LQSize {
			break
		}
		if in.Op.IsStore() && len(c.sq) >= c.cfg.SQSize {
			break
		}
		if in.Op == isa.OpFlush && len(c.sq) >= c.cfg.SQSize {
			break // flushes order with stores via the SQ
		}

		seq := c.tailSeq
		c.tailSeq++
		if c.obs.On(obs.ClassRename) {
			c.obs.Emit(obs.Event{Cycle: c.cycle, Class: obs.ClassRename, Kind: "rename",
				Seq: seq, PC: slot.pc,
				Detail: fmt.Sprintf("seq=%d pc=%d %v", seq, slot.pc, slot.in)})
		}
		e := c.entry(seq)
		// Clear, then fill: a composite literal would be built on the
		// stack and copied into the slot.
		*e = robEntry{}
		e.seq, e.pc, e.in = seq, slot.pc, in
		e.predTaken, e.predTarget, e.bpSnap = slot.predTaken, slot.predTarget, slot.snap
		e.sqForward, e.prevProd = -1, -1
		var buf [2]isa.Reg
		srcs := in.SrcRegs(buf[:0])
		e.nSrc = len(srcs)
		for i, r := range srcs {
			e.src[i] = operand{reg: r, producer: c.renameMap[r]}
		}
		if in.Op.WritesReg() {
			e.hasDest = true
			e.prevProd = c.renameMap[in.Rd]
			c.renameMap[in.Rd] = int64(seq)
		}
		switch {
		case in.Op == isa.OpNop || in.Op == isa.OpHalt:
			e.state = stDone
		case in.Op == isa.OpJmp:
			// Direct jump with a statically-known target: resolved at
			// dispatch, never mispredicts.
			e.state = stDone
			e.resolved, e.effectApplied = true, true
			e.actualTaken, e.actualTarget = true, in.Target
		case in.Op == isa.OpFlush:
			// Flushes carry an address source; they apply at commit. The
			// address is read at commit time from the committed regfile.
			e.state = stDone
			c.sq = append(c.sq, seq)
		default:
			c.iq = append(c.iq, iqSlot{seq: seq})
		}
		if in.Op.IsCondBranch() {
			c.brq = append(c.brq, seq)
		}
		if in.Op.IsLoad() {
			c.lq = append(c.lq, seq)
		}
		if in.Op.IsStore() {
			c.sq = append(c.sq, seq)
		}
	}
	// Pop the renamed slots by copying down: the buffer keeps its
	// capacity, so fetch's appends never reallocate.
	c.fetchBuf = c.fetchBuf[:copy(c.fetchBuf, c.fetchBuf[n:])]
}

// operandInfo resolves an operand's current value, readiness, and taint
// root.
func (c *Core) operandInfo(o operand) (val uint64, ready bool, root uint64) {
	if o.producer < 0 || uint64(o.producer) < c.headSeq {
		return c.regs[o.reg], true, 0
	}
	p := c.entry(uint64(o.producer))
	if p.state != stDone {
		return 0, false, p.destRoot
	}
	root = p.destRoot
	if root < c.frontier {
		root = 0
	}
	return p.destVal, true, root
}

// srcsReady reports whether all of e's sources are ready, and the max root.
func (c *Core) srcsReady(e *robEntry) (ready bool, vals [2]uint64, root uint64) {
	ready = true
	for i := 0; i < e.nSrc; i++ {
		v, ok, r := c.operandInfo(e.src[i])
		if !ok {
			ready = false
		}
		vals[i] = v
		if r > root {
			root = r
		}
	}
	return ready, vals, root
}

// produced reports whether producer seq p's value can be read: p has
// committed (0, the regfile sentinel, always has) or its result is bound.
func (c *Core) produced(p uint64) bool { return p < c.headSeq || c.entry(p).state == stDone }

// pendingProducer returns the producer of the first operand e cannot
// issue without (0: none). Loads and stores need only their address;
// store data may bind after issue.
func (c *Core) pendingProducer(e *robEntry) uint64 {
	n := e.nSrc
	if e.in.Op.IsMem() {
		n = 1
	}
	for _, o := range e.src[:n] {
		if o.producer >= 0 && !c.produced(uint64(o.producer)) {
			return uint64(o.producer)
		}
	}
	return 0
}

// tainted reports whether a root is still speculative under the current
// frontier. Root 0 is the untainted sentinel.
func (c *Core) tainted(root uint64) bool { return root != 0 && root >= c.frontier }
