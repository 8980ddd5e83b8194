package pipeline

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
)

// entryState tracks an instruction's progress through the backend.
type entryState uint8

const (
	stWaiting   entryState = iota // in IQ, operands not ready / delayed
	stExecuting                   // issued, completes at doneAt
	stDone                        // result bound (register-writing value final)
)

// oblState is the Obl-Ld execution state machine (§V-C2, the 4-bit
// "Obl-Ld State" load-queue field of §VI-A).
type oblState uint8

const (
	oblNone       oblState = iota // not an Obl-Ld
	oblInFlight                   // issued; waiting for wait-buffer responses (before B)
	oblComplete                   // B reached before C; waiting to become safe
	oblSafeWaitB                  // C reached before B; validation issued; waiting for B (or D)
	oblValidating                 // safe, success, validation in flight (waiting D)
	oblResolved                   // fully resolved (validated / exposed / squash applied)
)

// squashCause labels squash statistics.
type squashCause uint8

const (
	sqBranch squashCause = iota
	sqMemOrder
	sqOblFail
	sqValidation
	sqConsistency
	sqTLB
	sqFPFail
	numSquashCauses
)

var squashCauseNames = [numSquashCauses]string{
	"branch", "mem-order", "obl-fail", "validation", "consistency", "tlb", "fp-fail",
}

// operand is one renamed source: either the committed register file value
// (producer < 0) or the output of the in-flight producer with that
// sequence number.
type operand struct {
	reg      isa.Reg
	producer int64 // -1 when the value comes from the committed regfile
}

// iqSlot is one issue-queue entry: the waiting instruction and the
// producer whose value it last found missing (0: none recorded). Issue
// skips the slot until that producer's value is bound.
type iqSlot struct{ seq, wait uint64 }

// robEntry is one in-flight instruction. It embeds the load/store-queue
// fields (the §VI-A extensions included) since LQ/SQ entries correspond
// 1:1 with their ROB entries.
type robEntry struct {
	seq  uint64
	pc   int
	in   isa.Instr
	src  [2]operand
	nSrc int

	state  entryState
	doneAt uint64 // valid when state >= stExecuting

	// Destination (merged rename: value lives in the ROB entry).
	hasDest  bool
	destVal  uint64
	destRoot uint64 // YRoT: 0 = untainted
	prevProd int64  // previous producer of in.Rd, for squash repair

	// Branch bookkeeping.
	predTaken     bool
	predTarget    int
	bpSnap        bpred.Snapshot
	resolved      bool // outcome computed
	actualTaken   bool
	actualTarget  int
	mispredicted  bool
	effectApplied bool // resolution effects (squash/train) performed

	// Memory bookkeeping.
	addrValid   bool
	addr        uint64
	addrRoot    uint64 // taint root of the address operands
	sqData      uint64 // store: value to write
	sqDataReady bool
	sqForward   int64 // load: seq of forwarding store, -1 if from memory
	memLevel    mem.Level
	specFill    bool // load filled the speculative shadow (promote at commit)

	// Obl-Ld state machine (§V-C2 / §VI-A fields).
	obl           oblState
	oblRes        mem.OblResult
	oblPred       mem.Level // predicted level ("Actual Level" trains the predictor)
	oblTLBOK      bool      // L1 TLB probe hit (⊥ translation forces fail)
	exposure      bool      // §VI-A Validation/Exposure bit
	valDone       uint64    // D: validation completion cycle
	valLevel      mem.Level // level the validation found data in
	valSnapshot   uint64    // value the Obl-Ld forwarded (compared at D)
	valInFlight   bool
	oblDropped    bool // fail revealed while safe; waiting for the validation
	oblMemDelayed bool // SDO predicted DRAM: delayed until safe (§VI-B2)
	pendingInval  bool // line invalidated while speculative (§V-C1)

	// SDO floating-point operation.
	fpSDO     bool // executed on the predicted fast path with tainted args
	fpFail    bool // args turned out subnormal: squash when safe
	fpArgs    [2]uint64
	pendingSq bool // Pending Squash bit (§VI-A): squash when safe

	// STT transmitter-delay accounting.
	delayedSince uint64 // cycle the instruction first stalled on taint (0 = never)
}

func (e *robEntry) isBranch() bool { return e.in.Op.IsBranch() }
func (e *robEntry) isLoad() bool   { return e.in.Op.IsLoad() }
func (e *robEntry) isStore() bool  { return e.in.Op.IsStore() }

// Stats aggregates everything the experiment harness reads. All counters
// are cumulative over a run.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64

	Squashes       [numSquashCauses]uint64
	SquashedInstrs uint64
	BranchesResolved,
	BranchMispredicts uint64

	Loads, Stores uint64

	// STT delay accounting.
	DelayedLoads        uint64 // loads that ever stalled on a tainted address
	LoadDelayCycles     uint64 // total cycles loads spent taint-stalled
	DelayedFPs          uint64
	FPDelayCycles       uint64
	DelayedResolutions  uint64 // branch resolutions parked on tainted predicates
	PendingSquashDelays uint64 // squashes parked until untaint (implicit-channel rule)

	// SDO accounting.
	OblIssued       uint64
	OblSuccess      uint64
	OblFail         uint64
	OblPredMem      uint64 // predicted-DRAM loads delayed until safe (§VI-B2)
	OblTLBMiss      uint64 // Obl-Lds with ⊥ translation (§V-B)
	OblEarlyForward uint64 // early wait-buffer forwards (§V-C2 optimisation)
	Validations     uint64
	Exposures       uint64
	ValidationStall uint64 // commit-blocked cycles waiting for validations
	FPSDOIssued     uint64
	FPSDOFail       uint64
	// FPSlowPathExecs counts FP executions that actually took the
	// operand-dependent slow path (the timing channel). SDO and STT{ld+fp}
	// keep this at zero for speculatively-accessed operands.
	FPSlowPathExecs uint64

	// Location-predictor quality (Table III): counted per resolved Obl-Ld.
	PredPrecise    uint64 // predicted == actual
	PredImprecise  uint64 // predicted > actual (success, slower than needed)
	PredInaccurate uint64 // predicted < actual (fail)
	// ImprecisionCycles sums latency(predicted)-latency(actual) over
	// imprecise successes (feeds the Figure 7 breakdown).
	ImprecisionCycles uint64

	Halted bool
}

// SquashesByCause returns a map of cause name to count.
func (s *Stats) SquashesByCause() map[string]uint64 {
	m := make(map[string]uint64, numSquashCauses)
	for c, n := range s.Squashes {
		m[squashCauseNames[c]] = n
	}
	return m
}

// TotalSquashes sums all squash causes.
func (s *Stats) TotalSquashes() uint64 {
	var t uint64
	for _, n := range s.Squashes {
		t += n
	}
	return t
}

// Sub returns s - base, counter-wise: the statistics accrued strictly
// after base was captured. Used to exclude cache-warmup from measurement.
func (s Stats) Sub(base Stats) Stats {
	d := s
	d.Cycles -= base.Cycles
	d.Committed -= base.Committed
	d.Fetched -= base.Fetched
	for i := range d.Squashes {
		d.Squashes[i] -= base.Squashes[i]
	}
	d.SquashedInstrs -= base.SquashedInstrs
	d.BranchesResolved -= base.BranchesResolved
	d.BranchMispredicts -= base.BranchMispredicts
	d.Loads -= base.Loads
	d.Stores -= base.Stores
	d.DelayedLoads -= base.DelayedLoads
	d.LoadDelayCycles -= base.LoadDelayCycles
	d.DelayedFPs -= base.DelayedFPs
	d.FPDelayCycles -= base.FPDelayCycles
	d.DelayedResolutions -= base.DelayedResolutions
	d.PendingSquashDelays -= base.PendingSquashDelays
	d.OblIssued -= base.OblIssued
	d.OblSuccess -= base.OblSuccess
	d.OblFail -= base.OblFail
	d.OblPredMem -= base.OblPredMem
	d.OblTLBMiss -= base.OblTLBMiss
	d.OblEarlyForward -= base.OblEarlyForward
	d.Validations -= base.Validations
	d.Exposures -= base.Exposures
	d.ValidationStall -= base.ValidationStall
	d.FPSDOIssued -= base.FPSDOIssued
	d.FPSDOFail -= base.FPSDOFail
	d.FPSlowPathExecs -= base.FPSlowPathExecs
	d.PredPrecise -= base.PredPrecise
	d.PredImprecise -= base.PredImprecise
	d.PredInaccurate -= base.PredInaccurate
	d.ImprecisionCycles -= base.ImprecisionCycles
	return d
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}
