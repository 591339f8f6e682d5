package uarch

import (
	"sync"

	"dlvp/internal/branch"
	"dlvp/internal/predictor"
	"dlvp/internal/trace"
)

// The instruction window is stored struct-of-arrays: every per-instruction
// field lives in its own column, indexed by seq & windowMask. The hot
// scheduling columns (flags, ready/complete times, dependencies) are small
// dense arrays the per-cycle loops stream through; everything the scheduler
// never touches — predictor lookup results, probed values, RAS snapshots —
// sits in a cold per-slot struct read only on the prediction and commit
// paths. Fetching an instruction initialises only the hot columns; cold
// fields are written lazily by the stage that produces them and are always
// read behind a flag bit set by that same stage, so slot reuse needs no
// per-instruction clearing.

// windowCap bounds in-flight instructions (ROB + front-end queue); it must
// be a power of two and comfortably exceed ROBSize + front-end depth.
const (
	windowCap   = 1024
	windowMask  = windowCap - 1
	windowWords = windowCap / 64
)

// The trace ring holds the most recent bufCap records of the functional
// stream; it must cover the live window (≤ windowCap) plus refetch slack,
// so records are overwritten only long after they can no longer be
// refetched.
const (
	bufCap  = 2048
	bufMask = bufCap - 1
)

// frontQCap bounds fetched-but-unrenamed instructions (the decode queue).
const frontQCap = 64

// The scheduler's timing wheel covers this many future cycles; sleeps past
// the horizon are clamped (an early wake is always safe, the candidate just
// re-checks and sleeps again).
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// The completion wheel buckets issued instructions by completion cycle; its
// horizon must exceed the worst memory round trip (TLB walk + miss path +
// queueing), so in-horizon entries pop exactly at execDone. The rare
// overflow entry is clamped and re-pushed when popped early.
const (
	doneWheelSize = 1024
	doneWheelMask = doneWheelSize - 1
)

// doneEnt is one completion-wheel entry. issuedAt stamps the issue instance
// (the slot's issueCycle at push time): an entry whose stamp no longer
// matches belongs to a squashed or replayed instance and is dropped.
type doneEnt struct {
	seq      uint64
	issuedAt uint64
}

// Per-slot status bits (the old entry's booleans, packed).
const (
	fValid uint32 = 1 << iota
	fRenamed
	fIssued
	fCompleted
	fTrained
	fValidated
	fBrMispredict
	fMdpWait
	fLscdSkip
	fPaqIssued
	fProbeDone
	fProbeHit
	fProbeTLB
	fAddrLk    // the address predictor looked this load up (addrLk)
	fAddrAlias // address training found the entry reallocated (a tag alias)
	fValueLk   // the value predictor looked up every destination
	fValueConf // some destination has a confident value prediction
	fVpMade
	fVpOracleDropped
	fHasRasAfter
	// fPartialStall marks a load that was held at issue at least once
	// because an older in-flight store only partially covered its bytes
	// (set once per fetched instance, for stats and siteprof).
	fPartialStall
	// Static instruction attributes, cached at fetch so the per-cycle
	// scheduling loops never touch the (much larger) trace record.
	fIsLoad
	fIsStore
)

// fIsMem selects memory operations (load or store).
const fIsMem = fIsLoad | fIsStore

// coldState carries the per-instruction fields the scheduling loops never
// read. Each field is valid only when its producing stage set the matching
// flag bit (addrLk ↔ fAddrLk, probeVals ↔ fProbeHit, ...), so stale data
// from a previous occupant of the slot is never observed. Predictors keep
// their own training context per slot; the window holds only their
// scheme-neutral results.
type coldState struct {
	addrLk predictor.AddrLookup
	tageLk branch.Lookup // conditional-branch indices, hashed once at fetch

	probeDeliver uint64 // cycle the probed value reaches the VPE
	probeVals    [trace.MaxDests]uint64

	// Fetch-time value predictions per destination (behind fValueLk).
	valPred [trace.MaxDests]uint64
	valConf [trace.MaxDests]bool

	// Final value prediction installed in the PVT at rename.
	vpSource   predictor.Side
	vpVals     [trace.MaxDests]uint64
	vpPerDest  [trace.MaxDests]bool
	vpNumDests int

	l1Way int8 // way the demand access found/filled (trains way prediction)

	// RAS snapshot after this instruction (calls/returns only).
	rasAfter branch.RASState
}

// windowState is the struct-of-arrays instruction window.
type windowState struct {
	flags [windowCap]uint32

	// Hot scheduling columns.
	renameReady [windowCap]uint64 // earliest rename cycle (fetch + front latency + icache)
	renameCycle [windowCap]uint64
	issueCycle  [windowCap]uint64
	execDone    [windowCap]uint64 // cycle the result is available
	notBefore   [windowCap]uint64 // delays (re-)issue until the replay penalty elapsed
	fetchCycle  [windowCap]uint64
	deps        [windowCap][trace.MaxSrcs]uint64 // producer seq+1 per source (0 = ready)

	// Branch/history snapshots (squash recovery).
	ghistBefore [windowCap]uint64 // fetch-time history (for trainer re-indexing)
	ghistAfter  [windowCap]uint64
	lphistAfter [windowCap]uint64

	// Selective-replay taint marks: slot seq + epoch, so a replay pass can
	// test "tainted in this pass" without a per-pass map (a slot alias from
	// a long-committed producer fails the seq equality check).
	taintSeq [windowCap]uint64
	taintEp  [windowCap]uint64

	cold [windowCap]coldState
}

// seqRing is a bounded FIFO of ascending sequence numbers backed by a
// power-of-two array: pushed at fetch, popped at commit, truncated from the
// tail on a squash. It gives the memory-order checks an index of exactly
// the in-flight loads (or stores) so they no longer walk the whole window.
type seqRing struct {
	buf  [windowCap]uint64
	head uint32
	tail uint32
}

func (r *seqRing) reset()          { r.head, r.tail = 0, 0 }
func (r *seqRing) len() int        { return int(r.tail - r.head) }
func (r *seqRing) push(seq uint64) { r.buf[r.tail&windowMask] = seq; r.tail++ }

func (r *seqRing) popFront() uint64 {
	s := r.buf[r.head&windowMask]
	r.head++
	return s
}

func (r *seqRing) at(i int) uint64 { return r.buf[(r.head+uint32(i))&windowMask] }

// truncateFrom drops every element >= seq (squash of the younger tail).
func (r *seqRing) truncateFrom(seq uint64) {
	for r.tail != r.head && r.buf[(r.tail-1)&windowMask] >= seq {
		r.tail--
	}
}

// lowerBound returns the index of the first element >= seq.
func (r *seqRing) lowerBound(seq uint64) int {
	lo, hi := 0, r.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid) < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Arena owns every bulk per-run allocation of a core: the SoA window, the
// trace ring, the scheduler bitmap, the LDQ/STQ index rings, the PAQ ring
// and the small scheduler slices. A fresh arena is one allocation; reusing
// one across runs (NewAtArena) makes a whole simulation allocation-free on
// the per-instruction path and nearly so per run.
type Arena struct {
	w   windowState
	buf [bufCap]trace.Rec

	// iqBits marks renamed-and-unissued slots; issue selects ready
	// instructions oldest-first with TrailingZeros64 over these words.
	iqBits [windowWords]uint64

	// activeBits ⊆ iqBits marks the candidates worth examining this cycle.
	// A candidate that fails its ready checks goes to sleep: into the
	// timing wheel when the earliest cycle it could become ready is known
	// (replay cool-down, an issued producer's completion time), or until
	// the next wake event otherwise (any issue, a VP install, a replay, a
	// flush — the only transitions that can create readiness). Sleeping
	// candidates are provably not ready, so scanning only active ones
	// issues the exact same instructions in the exact same order.
	activeBits [windowWords]uint64
	wheel      [wheelSize][]uint32 // per-cycle wake lists (slot numbers)

	// waiters[p] lists the candidate slots sleeping on producer slot p (its
	// completion time is unknown until it issues). Drained — waking every
	// listed candidate — when p issues or receives a value prediction, the
	// only transitions that can unblock a register dependent. Stale entries
	// (from sleepers since woken elsewhere, or a squashed producer) cause
	// only spurious wakes, which the ready checks absorb.
	waiters [windowCap][]uint32

	ldqIdx seqRing // all fetched, uncommitted loads (wider than LDQ occupancy)
	stqIdx seqRing // all fetched, uncommitted stores

	// done buckets issued instructions by completion cycle, so executeStage
	// drains exactly the instructions finishing now instead of walking every
	// in-flight one. Within a bucket entries sit in push (= issue) order —
	// the order the old in-flight walk processed them — and a flush rebuilds
	// the wheel from the surviving window in sequence order, again matching
	// the old list rebuild.
	done [doneWheelSize][]doneEnt

	pendingStores []uint64 // in-flight, not-yet-issued store seqs, ascending
	reissue       []uint64 // selective-replay scratch

	paqBuf []paqEntry // PAQ ring storage, sized to cfg.PAQEntries
}

// NewArena returns an arena ready for NewAtArena.
func NewArena() *Arena {
	return &Arena{
		pendingStores: make([]uint64, 0, windowCap),
		reissue:       make([]uint64, 0, windowCap),
	}
}

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// AcquireArena returns a recycled arena (or a fresh one when the pool is
// empty) for NewAtArena. Release it with ReleaseArena once the core built
// on it has finished running.
func AcquireArena() *Arena { return arenaPool.Get().(*Arena) }

// ReleaseArena returns an arena to the pool for reuse. The arena (and any
// core built on it) must not be touched afterwards.
func ReleaseArena(a *Arena) {
	if a != nil {
		arenaPool.Put(a)
	}
}

// reset clears the state a new run must not observe. Only the flag and
// bitmap columns need zeroing: every other column is written before it is
// read (hot columns at fetch, cold fields behind their flag bits), and the
// trace ring is filled before the cursor reaches it.
func (a *Arena) reset() {
	a.w.flags = [windowCap]uint32{}
	a.w.taintSeq = [windowCap]uint64{}
	a.w.taintEp = [windowCap]uint64{}
	a.iqBits = [windowWords]uint64{}
	a.activeBits = [windowWords]uint64{}
	for i := range a.wheel {
		a.wheel[i] = a.wheel[i][:0]
	}
	for i := range a.waiters {
		a.waiters[i] = a.waiters[i][:0]
	}
	for i := range a.done {
		a.done[i] = a.done[i][:0]
	}
	a.ldqIdx.reset()
	a.stqIdx.reset()
	a.pendingStores = a.pendingStores[:0]
	a.reissue = a.reissue[:0]
}
