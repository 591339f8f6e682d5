// Package vtage implements the VTAGE context-based value predictor of
// Perais & Seznec (HPCA 2014), the state-of-the-art value-prediction
// baseline the paper compares DLVP against. Several tagged tables are
// indexed with a hash of the instruction PC and increasing slices of global
// branch history; the longest-history hitting table provides the
// prediction. Following the paper's design-space exploration, the
// zero-history base table (the last-value component) is tagged too —
// "using tags with the LVP table is crucial".
//
// The package also implements the paper's ISA-specific findings: ARM-style
// multi-destination loads (LDP/LDM/VLD) occupy one predictor entry per
// destination register (PC concatenated with the destination index, then
// hashed with history), and the resulting table pressure and flush
// amplification can be mitigated with a dynamic or static opcode filter
// (Section 5.2.2).
package vtage

import (
	"dlvp/internal/isa"
	"dlvp/internal/predictor"
)

// FilterKind selects the opcode-filter flavour evaluated in Figure 7.
type FilterKind uint8

// Filter flavours.
const (
	// FilterNone is vanilla VTAGE.
	FilterNone FilterKind = iota
	// FilterDynamic tracks per-opcode prediction accuracy and blocks
	// opcodes that fall below the threshold (pays a training cost).
	FilterDynamic
	// FilterStatic is preloaded with the problematic opcodes
	// (LDP, LDM, VLD) — no training needed, the paper's winner.
	FilterStatic
)

func (f FilterKind) String() string {
	switch f {
	case FilterDynamic:
		return "dynamic"
	case FilterStatic:
		return "static"
	default:
		return "vanilla"
	}
}

// Config parameterises VTAGE. The paper's configuration (Table 4): three
// 256-entry direct-mapped tables with global branch histories {0, 5, 13},
// 16-bit tags, 64-bit values, 3-bit confidence; total 62.3k bits.
type Config struct {
	TableEntries int
	Histories    []uint8 // history length per table, ascending; first is the base
	TagBits      uint8
	Filter       FilterKind
	// LoadsOnly restricts prediction to load instructions (the paper's
	// recommended mode at an 8KB budget).
	LoadsOnly bool
	// DynamicFilterThresholdPct is the minimum per-opcode accuracy (percent)
	// for the dynamic filter; the paper uses 95%.
	DynamicFilterThresholdPct float64
	// DynamicFilterMinSamples is how many predictions of an opcode the
	// dynamic filter observes before it may block the opcode.
	DynamicFilterMinSamples uint64
	// ConfidenceVector overrides the FPC probability vector (default: the
	// VTAGE 64-128-observation vector). Ablations and tests use faster
	// vectors to trade accuracy for coverage.
	ConfidenceVector []uint32
	Seed             uint64
}

// DefaultConfig returns the paper's best VTAGE configuration: static opcode
// filter, loads only.
func DefaultConfig() Config {
	return Config{
		TableEntries:              256,
		Histories:                 []uint8{0, 5, 13},
		TagBits:                   16,
		Filter:                    FilterStatic,
		LoadsOnly:                 true,
		DynamicFilterThresholdPct: 95,
		DynamicFilterMinSamples:   256,
		Seed:                      0x7a6e,
	}
}

type entry struct {
	tag   uint16
	value uint64
	conf  uint8
	valid bool
}

// Predictor is the VTAGE value predictor.
type Predictor struct {
	cfg    Config
	tables [][]entry
	fpc    *predictor.FPC
	rng    *predictor.Rand
	ghist  *predictor.GlobalHistory

	// Dynamic filter state, indexed by opcode.
	filtPred    [isa.NumOps]uint64
	filtWrong   [isa.NumOps]uint64
	filtBlocked [isa.NumOps]bool

	Lookups     uint64
	Hits        uint64
	Allocations uint64

	slotLk predictor.SlotContexts[Lookup] // per-window-slot lookups (NewWindowed)
}

// New returns a VTAGE predictor.
func New(cfg Config) *Predictor {
	if cfg.TableEntries == 0 {
		cfg = DefaultConfig()
	}
	if cfg.TableEntries&(cfg.TableEntries-1) != 0 {
		panic("vtage: TableEntries must be a power of two")
	}
	if len(cfg.Histories) == 0 {
		panic("vtage: need at least one table")
	}
	if cfg.DynamicFilterThresholdPct == 0 {
		cfg.DynamicFilterThresholdPct = 95
	}
	if cfg.DynamicFilterMinSamples == 0 {
		cfg.DynamicFilterMinSamples = 256
	}
	rng := predictor.NewRand(cfg.Seed)
	fpc := predictor.VTAGEConfidenceFPC(rng)
	if len(cfg.ConfidenceVector) > 0 {
		fpc = predictor.NewFPC(rng, cfg.ConfidenceVector...)
	}
	p := &Predictor{
		cfg:   cfg,
		fpc:   fpc,
		rng:   rng,
		ghist: &predictor.GlobalHistory{},
	}
	for range cfg.Histories {
		p.tables = append(p.tables, make([]entry, cfg.TableEntries))
	}
	if cfg.Filter == FilterStatic {
		p.filtBlocked[isa.LDP] = true
		p.filtBlocked[isa.LDM] = true
		p.filtBlocked[isa.VLD] = true
	}
	return p
}

// NewWindowed returns a predictor that also keeps the per-destination
// lookups of slots in-flight instructions for predictor.ValuePredictor,
// with room for two destinations per slot until a wider one arrives.
func NewWindowed(cfg Config, slots int) *Predictor {
	p := New(cfg)
	p.slotLk = predictor.NewSlotContexts[Lookup](slots, 2)
	return p
}

// Config returns the active configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Eligible reports whether VTAGE would try to predict this opcode with
// nDests destination registers under the configured mode and filter.
func (p *Predictor) Eligible(op isa.Op, nDests int) bool {
	return predictor.Targetable(op, nDests, p.cfg.LoadsOnly) && !p.filtBlocked[op]
}

// Lookup is the probe result for one destination register of one
// instruction, carrying the context needed for training.
type Lookup struct {
	Op        isa.Op
	Key       uint64 // PC ⊕ destination index key
	Hist      uint64 // global-history snapshot used
	Provider  int8   // hitting table (longest history), -1 if none
	Index     [8]uint32
	Tag       [8]uint16
	Confident bool
	Value     uint64
}

func (p *Predictor) indexTag(table int, key, hist uint64) (uint32, uint16) {
	hbits := p.cfg.Histories[table]
	idxBits := uint8(0)
	for n := p.cfg.TableEntries; n > 1; n >>= 1 {
		idxBits++
	}
	m := predictor.MixPC(key) + uint64(table)*0x51ed
	fi := predictor.Fold(hist, hbits, idxBits)
	idx := (uint32(m) ^ uint32(fi)) & uint32(p.cfg.TableEntries-1)
	ft := predictor.Fold(hist, hbits, p.cfg.TagBits)
	tag := (uint16(m>>11) ^ uint16(ft)) & uint16(1<<p.cfg.TagBits-1)
	return idx, tag
}

// destKey concatenates the destination-register index onto the PC — the
// paper's adjustment so each destination of LDP/LDM/VLD gets its own entry.
// The index rides above the 4-byte-alignment bits so the PC whitening hash
// (which discards the low two bits) keeps it.
func destKey(pc uint64, destIdx int) uint64 {
	return pc<<4 | uint64(destIdx&0xf)<<2
}

// Predict probes all tables for destination destIdx of the instruction at
// pc, using the current global branch history.
func (p *Predictor) Predict(pc uint64, destIdx int) Lookup {
	return p.PredictWith(pc, destIdx, p.ghist.Value())
}

// PredictWith probes with an explicit history snapshot.
func (p *Predictor) PredictWith(pc uint64, destIdx int, hist uint64) Lookup {
	p.Lookups++
	key := destKey(pc, destIdx)
	lk := Lookup{Key: key, Hist: hist, Provider: -1}
	for t := range p.tables {
		idx, tag := p.indexTag(t, key, hist)
		lk.Index[t], lk.Tag[t] = idx, tag
		e := &p.tables[t][idx]
		if e.valid && e.tag == tag {
			lk.Provider = int8(t)
			lk.Value = e.value
			lk.Confident = p.fpc.Saturated(e.conf)
		}
	}
	if lk.Provider >= 0 {
		p.Hits++
	}
	return lk
}

// Train updates the predictor for one destination after the instruction
// executed. For the dynamic filter, outcomes also feed the per-opcode
// accuracy table (only outcomes of predictions actually made, mirroring how
// hardware observes its own mispredictions).
func (p *Predictor) Train(lk Lookup, op isa.Op, actual uint64) {
	if lk.Confident {
		p.filtPred[op]++
		if lk.Value != actual {
			p.filtWrong[op]++
		}
		if p.cfg.Filter == FilterDynamic && !p.filtBlocked[op] &&
			p.filtPred[op] >= p.cfg.DynamicFilterMinSamples {
			acc := 100 * float64(p.filtPred[op]-p.filtWrong[op]) / float64(p.filtPred[op])
			if acc < p.cfg.DynamicFilterThresholdPct {
				p.filtBlocked[op] = true
			}
		}
	}

	if lk.Provider < 0 {
		// Complete miss: allocate in the base table.
		p.allocate(0, lk, actual)
		return
	}
	t := int(lk.Provider)
	e := &p.tables[t][lk.Index[t]]
	if !e.valid || e.tag != lk.Tag[t] {
		// Reallocated under us between predict and train; treat as miss.
		p.allocate(0, lk, actual)
		return
	}
	if e.value == actual {
		e.conf = p.fpc.Bump(e.conf)
		return
	}
	// Mispredicted (or not-yet-confident mismatch): replace the value only
	// when confidence has drained, then try to allocate a longer-history
	// entry so a richer context can capture the pattern.
	if e.conf == 0 {
		e.value = actual
	} else {
		e.conf = 0
	}
	if t+1 < len(p.tables) {
		p.allocate(t+1+int(p.rng.Next()%uint64(len(p.tables)-t-1)), lk, actual)
	}
}

func (p *Predictor) allocate(t int, lk Lookup, value uint64) {
	e := &p.tables[t][lk.Index[t]]
	if e.valid && e.conf > 0 && (e.tag != lk.Tag[t]) {
		// Anti-thrash: confident strangers survive, but decay.
		e.conf--
		return
	}
	if !e.valid || e.tag != lk.Tag[t] {
		p.Allocations++
		*e = entry{tag: lk.Tag[t], value: value, conf: 0, valid: true}
		return
	}
	// Same tag (our own entry, e.g. base-table refresh).
	if e.conf == 0 {
		e.value = value
	}
}

// PushBranch records a branch outcome into the global history (the front
// end calls this for every conditional branch).
func (p *Predictor) PushBranch(taken bool) { p.ghist.Push(taken) }

// HistorySnapshot returns the speculative global history for checkpointing.
func (p *Predictor) HistorySnapshot() uint64 { return p.ghist.Snapshot() }

// RestoreHistory rewinds the global history after a squash.
func (p *Predictor) RestoreHistory(s uint64) { p.ghist.Restore(s) }

// Blocked reports whether the (dynamic or static) filter currently blocks op.
func (p *Predictor) Blocked(op isa.Op) bool { return p.filtBlocked[op] }

// EntryBits returns the storage of one entry in bits (tag + value + conf).
func (p *Predictor) EntryBits() int { return int(p.cfg.TagBits) + 64 + 3 }

// StorageBits returns the total budget in bits (paper: 3 × 256 × 83 = 62.3k).
func (p *Predictor) StorageBits() int {
	return len(p.tables) * p.cfg.TableEntries * p.EntryBits()
}

// Name (the energy-meter structure name), LookupCount (per-destination
// lookups) and LoadsOnly serve predictor.ValuePredictor.
func (p *Predictor) Name() string        { return "VTAGE" }
func (p *Predictor) LookupCount() uint64 { return p.Lookups }
func (p *Predictor) LoadsOnly() bool     { return p.cfg.LoadsOnly }

// PredictSlot predicts destination dest of the instruction at pc under
// history hist, keeping the lookup for slot.
func (p *Predictor) PredictSlot(slot, dest int, pc, hist uint64) (uint64, bool) {
	lk := p.PredictWith(pc, dest, hist)
	*p.slotLk.At(slot, dest) = lk
	return lk.Value, lk.Confident
}

// TrainSlot trains slot's lookup for dest with the executed value.
func (p *Predictor) TrainSlot(slot, dest int, op isa.Op, actual uint64) {
	p.Train(*p.slotLk.At(slot, dest), op, actual)
}
