package predictor

import "dlvp/internal/isa"

// The core drives a scheme's prediction machinery through the component
// interfaces below and never names a concrete scheme. Each component keeps
// its own training context between lookup and train, keyed by the core's
// instruction-window slot, so the core carries only scheme-neutral records.

// Metered is the energy meter's view of a prediction table: its structure
// name, storage budget in bits, and lookup count (each lookup trains once).
type Metered interface {
	Name() string
	StorageBits() int
	LookupCount() uint64
}

// AddrLookup is the scheme-neutral result of an address-predictor lookup.
type AddrLookup struct {
	Addr      uint64 // predicted address (valid when Hit)
	Way       int8   // predicted L1D way, -1 if unknown
	Hit       bool   // the predictor held an entry for this load
	Confident bool   // hit and confident: a prediction was made
}

// AddressPredictor predicts load addresses at fetch (PAP, CAP).
type AddressPredictor interface {
	Metered
	// PredictSlot looks up the load at pc under load-path history hist,
	// keeping the training context for window slot slot.
	PredictSlot(slot int, pc, hist uint64) AddrLookup
	// TrainSlot trains slot's lookup with the executed address, access
	// size and L1D way, and reports whether the looked-up entry had been
	// reallocated to another load in between (a tag alias).
	TrainSlot(slot int, pc, addr uint64, sizeLog2 uint8, way int8) (alias bool)
	// PushLoad, HistorySnapshot and RestoreHistory maintain the
	// speculative load-path history; without one they do nothing and
	// snapshot 0.
	PushLoad(pc uint64)
	HistorySnapshot() uint64
	RestoreHistory(snap uint64)
	// APTCounters returns the counters the flight recorder samples
	// (zero without an APT).
	APTCounters() APTStats
}

// APTStats are an address prediction table's cumulative activity counters.
type APTStats struct {
	Lookups     uint64
	Hits        uint64
	Allocations uint64
	ConfResets  uint64
	// TagAliases counts trainings that found their entry reallocated
	// between lookup and train — two static loads aliasing one slot.
	TagAliases uint64
	// ConfBumps counts successful FPC forward transitions;
	// ConfSaturations counts entries newly reaching full confidence (the
	// warm-up signal: a burst of saturations marks the table going hot).
	ConfBumps       uint64
	ConfSaturations uint64
}

// ValuePredictor predicts destination values at fetch (VTAGE, D-VTAGE).
type ValuePredictor interface {
	Metered
	// Eligible reports whether op with nDests destinations is targeted.
	Eligible(op isa.Op, nDests int) bool
	// PredictSlot predicts destination dest of the instruction at pc under
	// global branch history hist, keeping the training context for slot.
	PredictSlot(slot, dest int, pc, hist uint64) (value uint64, confident bool)
	// TrainSlot trains slot's prediction for dest with the executed value.
	TrainSlot(slot, dest int, op isa.Op, actual uint64)
	// LoadsOnly reports whether only loads are targeted.
	LoadsOnly() bool
}

// Targetable reports whether a value predictor may target op with nDests
// destinations: a value-producing instruction that is neither memory
// ordering, a store, nor a branch other than BL — and a load when
// loadsOnly.
func Targetable(op isa.Op, nDests int, loadsOnly bool) bool {
	return nDests > 0 && !op.IsOrdered() && !op.IsStore() &&
		(!op.IsBranch() || op == isa.BL) && (!loadsOnly || op.IsLoad())
}

// Side names the component that supplies a value prediction.
type Side uint8

// Chooser outcomes.
const (
	SideNone    Side = iota // no component was confident
	SideAddress             // the address predictor's probed value
	SideValue               // the value predictor's value
)

func (s Side) String() string {
	switch s {
	case SideAddress:
		return "address"
	case SideValue:
		return "value"
	default:
		return "none"
	}
}

// Chooser arbitrates between an attached address and value predictor
// (the tournament): Choose picks a side given which are ready, and Train
// learns from both sides' correctness when both predicted.
type Chooser interface {
	Choose(pc uint64, addrReady, valueReady bool) Side
	Train(pc uint64, addrCorrect, valueCorrect bool)
}

// SlotContexts holds training contexts keyed by window slot and
// destination index in one flat block of slots×stride entries. The stride
// widens, keeping stored contexts, the first time a destination index
// reaches it, so the steady state allocates nothing.
type SlotContexts[T any] struct {
	slots, stride int
	buf           []T
}

// NewSlotContexts returns room for stride destinations in each of slots
// slots.
func NewSlotContexts[T any](slots, stride int) SlotContexts[T] {
	return SlotContexts[T]{slots: slots, stride: stride, buf: make([]T, slots*stride)}
}

// At returns the context of destination dest in slot.
func (s *SlotContexts[T]) At(slot, dest int) *T {
	if dest >= s.stride {
		stride := max(2*s.stride, dest+1)
		buf := make([]T, s.slots*stride)
		for i := 0; i < s.slots; i++ {
			copy(buf[i*stride:], s.buf[i*s.stride:(i+1)*s.stride])
		}
		s.stride, s.buf = stride, buf
	}
	return &s.buf[slot*s.stride+dest]
}
