// Package uarch is the cycle-level out-of-order core model. It consumes the
// functional emulator's dynamic instruction stream and models the Table 4
// baseline pipeline — a 4-wide in-order front end feeding an 8-wide
// out-of-order engine (2 load-store lanes) through a 13-cycle
// fetch-to-execute pipe — plus the paper's value-prediction machinery:
//
//   - the Value Prediction Engine (PVT + predicted bits, Section 3.2.1),
//   - DLVP: address prediction at fetch, the Predicted Address Queue,
//     opportunistic L1D probes on load-store lane bubbles, probe-miss
//     prefetching, the LSCD in-flight-store filter, and way prediction
//     (Section 3.2.2),
//   - conventional value prediction, and a chooser between the two.
//
// The core names no prediction scheme. config.VPConfig.Components maps the
// configured scheme to an address predictor (PAP, CAP), a value predictor
// (VTAGE, D-VTAGE) and a chooser, each optional, and the pipeline drives
// them through the interfaces in internal/predictor.
//
// Being trace-driven, the model executes no wrong-path instructions;
// mispredictions are modelled as fetch redirect penalties, which is the
// standard trace-driven treatment. Probe staleness is modelled exactly: the
// core maintains its own committed-memory image, updated at store commit,
// and a DLVP probe reads that image — so a store committing between probe
// and load execution (or still in flight) yields a stale probed value and a
// genuine value misprediction, the paper's Challenge #1.
//
// The implementation is data-oriented: the instruction window is a
// struct-of-arrays block (window.go), the scheduler picks ready
// instructions from a bitmap with TrailingZeros64, memory-order checks walk
// compact LDQ/STQ sequence rings instead of the window, and all bulk state
// lives in an Arena a caller can recycle across runs.
package uarch

import (
	"fmt"

	"dlvp/internal/branch"
	"dlvp/internal/config"
	"dlvp/internal/emu"
	"dlvp/internal/energy"
	"dlvp/internal/mdp"
	"dlvp/internal/mem"
	"dlvp/internal/metrics"
	"dlvp/internal/predictor"
	"dlvp/internal/program"
	"dlvp/internal/siteprof"
	tline "dlvp/internal/timeline"
	"dlvp/internal/trace"
)

type flushKind uint8

const (
	flushBranch flushKind = iota
	flushValue
	flushOrder
)

type flushReq struct {
	seq       uint64 // squash everything with seq > this (flushOrder: >=)
	resume    uint64 // cycle fetch restarts
	kind      flushKind
	refetchAt uint64 // first seq to refetch
}

// Core is one simulated core instance bound to a program and its functional
// stream.
type Core struct {
	cfg    config.Core
	prog   *program.Program
	reader trace.Reader
	// ra is set when reader supports positional access: records are then
	// served straight out of the reader (zero-copy) and the staging ring
	// in the arena goes unused.
	ra trace.RandomAccess

	// Committed architectural memory image (probe staleness model).
	cmem *emu.Memory

	hier   *mem.Hierarchy
	tage   *branch.TAGE
	ittage *branch.ITTAGE
	ras    branch.RAS
	// rasBase is the RAS state at the commit head (squash fallback).
	rasBase branch.RASState
	ghist   predictor.GlobalHistory
	mdp     *mdp.Predictor

	// The scheme's prediction components (each nil when absent). The LSCD
	// exists only beside an address predictor.
	ap      predictor.AddressPredictor
	vp      predictor.ValuePredictor
	chooser predictor.Chooser
	lscd    *predictor.LSCD
	// allInstrStats widens the coverage denominator from loads to every
	// value-producing instruction: a lone value predictor not restricted
	// to loads.
	allInstrStats bool

	// a holds the SoA window, the trace ring, and every other bulk
	// per-run allocation (see window.go).
	a *Arena

	// Trace ring cursor: records [bufHi-bufCap, bufHi) are resident.
	bufHi    uint64 // next seq to pull from the reader
	traceEOF bool

	headSeq   uint64 // oldest in-flight seq (== next to commit)
	fetchSeq  uint64 // next seq to fetch
	renameSeq uint64 // next seq to rename
	haltSeen  bool
	haltSeq   uint64 // seq of the fetched HALT (valid when haltSeen)

	now uint64

	// History state at the commit head (flush fallback when every younger
	// instruction is squashed).
	committedGhist  uint64
	committedLphist uint64

	// Occupancy.
	frontCount int // fetched, unrenamed
	robCount   int // renamed, uncommitted
	iqCount    int // bits set in a.iqBits (renamed & unissued)
	ldqCount   int
	stqCount   int
	freeRegs   int
	pvtCount   int

	lastWriter [64]uint64 // seq+1 of last in-flight writer per arch reg

	// PAQ ring cursors over a.paqBuf.
	paqHead uint32
	paqTail uint32

	fetchStallUntil uint64
	pendingFlush    flushReq
	flushPending    bool

	replayEpoch uint64 // selective-replay taint-mark epoch

	// eventWake re-activates every sleeping scheduler candidate next cycle;
	// set by the transitions that can create readiness out of band: an
	// issue, a VP install at rename, a selective replay, a flush.
	eventWake bool

	// Energy access counters (per-structure counts fed into the meter).
	prfReads  uint64
	prfWrites uint64
	pvtWrites uint64

	memIssuedThisCycle     int
	loadPortsFreeThisCycle int

	stats  metrics.RunStats
	meter  *energy.Meter
	emodel energy.CoreModel

	// Stage-trace capture (EnableStageTrace).
	stageTraces []StageTrace
	traceStart  uint64
	traceWant   int

	// Flight recorder (EnableTimeline). tl is nil when sampling is off;
	// tlCountdown counts committed instructions down to the next interval
	// boundary; tlPAQPeak tracks the high-water PAQ occupancy since the
	// last boundary.
	tl          *tline.Recorder
	tlCountdown uint64
	tlPAQPeak   int
	timeline    *tline.Timeline

	// Sample window (SetSampleWindow). wmRemaining counts committed
	// instructions down to the measured-region boundary; wmSnap holds
	// the cumulative counters at that boundary so MeasuredCounters can
	// subtract the warm-up contribution out of the final totals. A
	// bounded measured region counts down mdRemaining, snapshots
	// mdSnap at the closing commit, and raises stopReq so Run ends
	// without simulating (or measuring) the end-of-stream pipeline
	// drain.
	wmRemaining uint64
	wmArmed     bool
	wmDone      bool
	wmSnap      tline.Counters
	mdRemaining uint64
	mdBounded   bool
	mdDone      bool
	mdSnap      tline.Counters
	stopReq     bool

	// Per-load-site attribution (EnableSiteProfile). sp is nil when
	// profiling is off; the commit path then pays one nil check per
	// eligible instruction.
	sp          *siteprof.Collector
	siteProfile *siteprof.Profile
}

type paqEntry struct {
	seq       uint64
	addr      uint64
	way       int8
	allocated uint64
}

// New builds a core in configuration cfg for program p, streaming records
// from reader. reader must be a fresh stream positioned at the program
// entry (typically an *emu.CPU).
func New(cfg config.Core, p *program.Program, reader trace.Reader) *Core {
	return NewAtArena(cfg, p, reader, nil, nil)
}

// NewAt builds a core whose committed-memory image starts from cmem
// instead of the program image — the mid-stream form used by sampled
// simulation, where reader is a checkpoint-restored (and seq-rebased)
// emulator and cmem is the architectural memory at the restore offset.
// cmem is cloned, never mutated; nil selects the program image
// (equivalent to New). The probe-staleness model depends on this: a
// DLVP probe reads the committed image, so an interval starting
// mid-stream must see the memory the committed stream has produced so
// far, not the initial data segments.
func NewAt(cfg config.Core, p *program.Program, reader trace.Reader, cmem *emu.Memory) *Core {
	return NewAtArena(cfg, p, reader, cmem, nil)
}

// NewAtArena is NewAt with an explicit arena. Passing an arena recycled
// from a finished run (never one still in use — arenas are not
// concurrency-safe) reuses its memory, making back-to-back simulations
// allocation-free on the bulk state. nil allocates a fresh arena.
func NewAtArena(cfg config.Core, p *program.Program, reader trace.Reader, cmem *emu.Memory, a *Arena) *Core {
	mimg := emu.NewMemoryFromProgram(p)
	if cmem != nil {
		mimg = cmem.Clone()
	}
	if a == nil {
		a = NewArena()
	} else {
		a.reset()
	}
	c := &Core{
		cfg:    cfg,
		prog:   p,
		reader: reader,
		cmem:   mimg,
		a:      a,
		hier:   mem.NewHierarchy(cfg.Mem),
		tage:   branch.NewTAGE(cfg.TAGE),
		ittage: branch.NewITTAGE(cfg.ITTAGE),
		mdp:    mdp.New(cfg.MDP),
		meter:  energy.NewMeter(),
		emodel: energy.DefaultCoreModel(),
	}
	if ra, ok := reader.(trace.RandomAccess); ok {
		// Zero-copy replay: the stream length is known up front, so the
		// cursor starts at the end and the EOF flag is pre-set — done()
		// then reads identically to a drained streaming reader.
		c.ra = ra
		c.bufHi = ra.NumRecs()
		c.traceEOF = true
	}
	paqCap := cfg.PAQEntries
	if paqCap < 1 {
		paqCap = 1
	}
	if len(a.paqBuf) != paqCap { // the ring always keeps len == capacity
		a.paqBuf = make([]paqEntry, paqCap)
	}
	c.freeRegs = cfg.PhysRegs - 64
	comp := cfg.VP.Components(windowCap)
	c.ap, c.vp, c.chooser = comp.Address, comp.Value, comp.Chooser
	if c.ap != nil && cfg.VP.LSCDEntries > 0 {
		c.lscd = predictor.NewLSCD(cfg.VP.LSCDEntries)
	}
	c.allInstrStats = c.ap == nil && c.vp != nil && !c.vp.LoadsOnly()
	c.stats.Scheme = comp.Name
	c.stats.Workload = p.Name
	return c
}

// rec returns the trace record for an in-flight (or just-fetched) seq; the
// ring slot is valid for any seq in [bufHi-bufCap, bufHi).
func (c *Core) rec(seq uint64) *trace.Rec {
	if c.ra != nil {
		return c.ra.RecAt(seq)
	}
	return &c.a.buf[seq&bufMask]
}

// cold returns the cold column block for seq.
func (c *Core) cold(seq uint64) *coldState { return &c.a.w.cold[seq&windowMask] }

// live reports whether seq refers to an in-flight instruction.
func (c *Core) live(seq uint64) bool {
	if seq < c.headSeq || seq >= c.fetchSeq {
		return false
	}
	return c.a.w.flags[seq&windowMask]&fValid != 0
}

// Run simulates until the stream is exhausted and the pipeline drains, or
// maxCycles elapses (0 = unlimited), and returns the run statistics.
func (c *Core) Run(maxCycles uint64) metrics.RunStats {
	for {
		if maxCycles > 0 && c.now >= maxCycles {
			break
		}
		c.commitStage()
		if c.stopReq {
			// A bounded sample window closed at a commit this cycle;
			// everything past it (including the drain) is out of scope.
			break
		}
		c.executeStage()
		c.issueStage()
		c.probeStage()
		c.renameStage()
		c.fetchStage()
		c.applyFlush()
		if c.done() {
			break
		}
		c.now++
	}
	c.finalizeStats()
	return c.stats
}

func (c *Core) done() bool {
	if c.headSeq != c.fetchSeq {
		return false
	}
	if c.haltSeen {
		return true
	}
	// End of stream: nothing in flight AND nothing left to (re)fetch.
	return c.traceEOF && c.fetchSeq >= c.bufHi
}

// fill ensures the trace ring covers seq; returns false at end of stream.
// The reader writes records directly into ring slots (every Reader fully
// overwrites the record), so the steady state moves each record exactly
// once and allocates nothing.
func (c *Core) fill(seq uint64) bool {
	if seq+bufCap < c.bufHi {
		panic(fmt.Sprintf("uarch: trace rewound below ring (seq %d, next %d)", seq, c.bufHi))
	}
	for c.bufHi <= seq {
		if c.traceEOF {
			return false
		}
		if !c.reader.Next(&c.a.buf[c.bufHi&bufMask]) {
			c.traceEOF = true
			return false
		}
		c.bufHi++
	}
	return true
}

func (c *Core) recAt(seq uint64) *trace.Rec {
	if c.ra != nil {
		if seq >= c.bufHi { // bufHi == NumRecs in random-access mode
			return nil
		}
		return c.ra.RecAt(seq)
	}
	if !c.fill(seq) {
		return nil
	}
	return &c.a.buf[seq&bufMask]
}

// paqLen returns the PAQ occupancy.
func (c *Core) paqLen() int { return int(c.paqTail - c.paqHead) }

// paqAt returns the i-th PAQ entry from the front.
func (c *Core) paqAt(i int) *paqEntry {
	return &c.a.paqBuf[(int(c.paqHead)+i)%len(c.a.paqBuf)]
}

func (c *Core) finalizeStats() {
	c.stats.Cycles = c.now
	c.stats.L1DMissRate = c.hier.L1D.MissRate()
	c.stats.L2MissRate = c.hier.L2.MissRate()
	c.stats.TLBMissRate = c.hier.TLB.MissRate()
	c.stats.TLBMisses = c.hier.TLB.Misses
	c.stats.Probes = c.hier.Probes
	c.stats.ProbeHits = c.hier.ProbeHits
	c.stats.WayMispredicts = c.hier.WayMispredictions
	if c.lscd != nil {
		c.stats.LSCDFiltered = c.lscd.Filtered
		c.stats.LSCDInserts = c.lscd.Inserts
	}
	c.meterEnergy()
	c.stats.CoreEnergy = c.emodel.Total(c.stats.Cycles, c.stats.Instructions, c.meter)
	if c.tl != nil {
		c.tlSample(true)
	}
	if c.sp != nil {
		c.spFinish()
	}
}

// Stats returns the statistics accumulated so far (valid after Run).
func (c *Core) Stats() metrics.RunStats { return c.stats }
