// Package pap implements the paper's primary contribution: Path-based
// Address Prediction. The Address Prediction Table (APT) is a partially
// tagged, direct-mapped table indexed and tagged with an XOR of the low
// order bits of the (proxy) load PC and a folded load-path history — a
// global shift register of bit 2 of every load PC. The global context both
// distinguishes multiple loads in one basic block and keeps speculative
// history management trivial (one register, snapshot/restore).
//
// Confidence is a 2-bit forward probabilistic counter with probability
// vector {1, 1/2, 1/4}: an address needs to be observed only ~8 times to
// reach confidence, versus 64-128 value observations for VTAGE.
package pap

import (
	"dlvp/internal/predictor"
)

// Config parameterises the APT. Zero fields take the paper's defaults via
// DefaultConfig.
type Config struct {
	Entries    int   // number of APT entries (power of two); paper: 1024
	TagBits    uint8 // partial tag width; paper: 14
	HistBits   uint8 // load-path history length; paper: 16
	AddrBits   uint8 // predicted address width; 32 (ARMv7) or 49 (ARMv8)
	WayPredict bool  // include the optional cache-way field
	WayBits    uint8 // log2(cache associativity); paper baseline: 2 (4-way L1D)
	Seed       uint64
	// AllocPolicy1, when true, always reallocates on an APT miss (the
	// paper's Policy-1 ablation). The default is Policy-2: allocate only
	// when the victim's confidence is zero, else decay it.
	AllocPolicy1 bool
}

// DefaultConfig returns the paper's APT configuration (Table 1 / Table 4):
// 1k entries, 14-bit tags, 16-bit load-path history, 49-bit (ARMv8)
// addresses, way prediction for a 4-way L1D.
func DefaultConfig() Config {
	return Config{
		Entries:    1024,
		TagBits:    14,
		HistBits:   16,
		AddrBits:   49,
		WayPredict: true,
		WayBits:    2,
		Seed:       0x9a9a,
	}
}

type entry struct {
	tag      uint16
	addr     uint64
	conf     uint8
	sizeLog2 uint8
	way      int8 // -1 when unknown
	valid    bool
}

// Predictor is the PAP address predictor.
type Predictor struct {
	cfg   Config
	table []entry
	fpc   *predictor.FPC
	hist  *predictor.LoadPathHistory

	// Stats observable by experiments and the timeline sampler.
	predictor.APTStats

	slotLk []Lookup // per-window-slot lookups (NewWindowed)
}

// New returns a PAP predictor with the given configuration.
func New(cfg Config) *Predictor {
	if cfg.Entries == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Entries&(cfg.Entries-1) != 0 {
		panic("pap: Entries must be a power of two")
	}
	rng := predictor.NewRand(cfg.Seed)
	p := &Predictor{
		cfg:   cfg,
		table: make([]entry, cfg.Entries),
		fpc:   predictor.PAPConfidenceFPC(rng),
		hist:  predictor.NewLoadPathHistory(cfg.HistBits),
	}
	for i := range p.table {
		p.table[i].way = -1
	}
	return p
}

// NewWindowed returns a predictor that also keeps the lookups of slots
// in-flight loads, keyed by window slot, for predictor.AddressPredictor.
func NewWindowed(cfg Config, slots int) *Predictor {
	p := New(cfg)
	p.slotLk = make([]Lookup, slots)
	return p
}

// Config returns the active configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Lookup is the result of probing the APT for one load; it carries the
// index/tag (computed from the history at prediction time) so training at
// execute reconstructs the same entry even after further speculative
// history updates.
type Lookup struct {
	Index     uint32
	Tag       uint16
	Hist      uint64 // history snapshot used for this lookup
	Hit       bool
	Confident bool   // hit and confidence saturated: a prediction was made
	Addr      uint64 // predicted address (valid when Hit)
	SizeLog2  uint8
	Way       int8 // predicted cache way, -1 if unknown or disabled
}

func (p *Predictor) indexTag(pc, hist uint64) (uint32, uint16) {
	idxBits := uint8(0)
	for n := p.cfg.Entries; n > 1; n >>= 1 {
		idxBits++
	}
	folded := predictor.Fold(hist, p.cfg.HistBits, idxBits)
	idx := (uint32(pc>>2) ^ uint32(folded)) & uint32(p.cfg.Entries-1)
	tfold := predictor.Fold(hist, p.cfg.HistBits, p.cfg.TagBits)
	tag := (uint16(pc>>2) ^ uint16(tfold) ^ uint16(pc>>12)<<3) & uint16(1<<p.cfg.TagBits-1)
	return idx, tag
}

// Lookup probes the APT with the current load-path history. The paper
// indexes with the fetch group address as a proxy for the load PC (the
// second load in a group uses FGA+4); the standalone evaluation uses the
// real load PC. Either works — the key just has to be stable per static
// load site.
func (p *Predictor) Lookup(pc uint64) Lookup {
	return p.LookupWith(pc, p.hist.Value())
}

// LookupWith probes using an explicit history snapshot (used by the timing
// model when reconstructing a prediction context at train time).
func (p *Predictor) LookupWith(pc, hist uint64) Lookup {
	p.Lookups++
	idx, tag := p.indexTag(pc, hist)
	e := &p.table[idx]
	lk := Lookup{Index: idx, Tag: tag, Hist: hist}
	if e.valid && e.tag == tag {
		p.Hits++
		lk.Hit = true
		lk.Addr = e.addr
		lk.SizeLog2 = e.sizeLog2
		lk.Confident = p.fpc.Saturated(e.conf)
		if p.cfg.WayPredict {
			lk.Way = e.way
		} else {
			lk.Way = -1
		}
	} else {
		lk.Way = -1
	}
	return lk
}

// TrainOutcome is the cause code Train returns for each update — what
// happened to the looked-up APT entry between prediction and training.
// Consumers (the per-site attribution layer, tests) branch on the code
// instead of re-deriving the outcome from the table's aggregate counters.
type TrainOutcome uint8

const (
	// TrainMissDecayed: APT miss; Policy-2 protected the confident victim
	// by decaying it instead of reallocating.
	TrainMissDecayed TrainOutcome = iota
	// TrainMissAllocated: APT miss; the slot was (re)allocated to this load.
	TrainMissAllocated
	// TrainAliasDecayed: the entry was reallocated by another static load
	// between lookup and train (a tag alias); the usurper survived decay.
	TrainAliasDecayed
	// TrainAliasAllocated: tag alias; the slot was reclaimed for this load.
	TrainAliasAllocated
	// TrainConfirmed: hit with matching address; confidence bumped (or
	// held, under the probabilistic counter).
	TrainConfirmed
	// TrainReset: hit with mismatching address — the load's access pattern
	// changed; confidence reset and the entry reallocated.
	TrainReset
)

// Alias reports whether the outcome detected a lookup-to-train tag alias.
func (o TrainOutcome) Alias() bool {
	return o == TrainAliasDecayed || o == TrainAliasAllocated
}

// String returns the outcome's wire name.
func (o TrainOutcome) String() string {
	switch o {
	case TrainMissDecayed:
		return "miss_decayed"
	case TrainMissAllocated:
		return "miss_allocated"
	case TrainAliasDecayed:
		return "alias_decayed"
	case TrainAliasAllocated:
		return "alias_allocated"
	case TrainConfirmed:
		return "confirmed"
	case TrainReset:
		return "reset"
	}
	return "unknown"
}

// Train updates the APT after the load executed, per Section 3.1.2, and
// returns the outcome code:
//
//	APT miss + Policy-2: allocate only if the victim's confidence is zero,
//	otherwise decrement it (confident entries survive eviction pressure).
//	APT hit, address match: probabilistically bump confidence.
//	APT hit, address mismatch: reset confidence and reallocate with the
//	executed load's information.
func (p *Predictor) Train(lk Lookup, actualAddr uint64, sizeLog2 uint8, way int8) TrainOutcome {
	e := &p.table[lk.Index]
	if !lk.Hit {
		if e.valid && e.conf > 0 && !p.cfg.AllocPolicy1 {
			e.conf--
			return TrainMissDecayed
		}
		p.Allocations++
		*e = entry{tag: lk.Tag, addr: actualAddr, conf: 0, sizeLog2: sizeLog2, way: way, valid: true}
		return TrainMissAllocated
	}
	if e.tag != lk.Tag {
		// The entry was reallocated between prediction and training; treat
		// as a miss under the active policy.
		p.TagAliases++
		if e.valid && e.conf > 0 && !p.cfg.AllocPolicy1 {
			e.conf--
			return TrainAliasDecayed
		}
		p.Allocations++
		*e = entry{tag: lk.Tag, addr: actualAddr, conf: 0, sizeLog2: sizeLog2, way: way, valid: true}
		return TrainAliasAllocated
	}
	if e.addr == actualAddr {
		before := e.conf
		e.conf = p.fpc.Bump(e.conf)
		// Branchless accounting: the bump outcome feeds the counters as
		// arithmetic rather than a (mispredicting) branch on the hot path.
		bumped := b2u64(e.conf > before)
		p.ConfBumps += bumped
		p.ConfSaturations += bumped & b2u64(p.fpc.Saturated(e.conf))
		e.sizeLog2 = sizeLog2
		if way >= 0 {
			e.way = way
		}
		return TrainConfirmed
	}
	p.ConfResets++
	*e = entry{tag: lk.Tag, addr: actualAddr, conf: 0, sizeLog2: sizeLog2, way: way, valid: true}
	return TrainReset
}

func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// PushLoad speculatively shifts a load's PC into the load-path history.
// The front end calls this for every fetched load.
func (p *Predictor) PushLoad(loadPC uint64) { p.hist.Push(loadPC) }

// HistorySnapshot returns the speculative history register for checkpointing.
func (p *Predictor) HistorySnapshot() uint64 { return p.hist.Snapshot() }

// RestoreHistory rewinds the history register after a squash.
func (p *Predictor) RestoreHistory(snap uint64) { p.hist.Restore(snap) }

// EntryBits returns the storage cost of one APT entry in bits (Table 1):
// tag + address + 2-bit confidence + 2-bit size + optional way.
func (p *Predictor) EntryBits() int {
	bits := int(p.cfg.TagBits) + int(p.cfg.AddrBits) + 2 + 2
	if p.cfg.WayPredict {
		bits += int(p.cfg.WayBits)
	}
	return bits
}

// StorageBits returns the total APT budget in bits (the paper's
// "1k x (50 or 67)" arithmetic, plus the optional way field).
func (p *Predictor) StorageBits() int { return p.cfg.Entries * p.EntryBits() }

// Name (the energy-meter structure name), LookupCount and APTCounters
// serve predictor.AddressPredictor.
func (p *Predictor) Name() string                    { return "APT" }
func (p *Predictor) LookupCount() uint64             { return p.Lookups }
func (p *Predictor) APTCounters() predictor.APTStats { return p.APTStats }

// PredictSlot looks up the load at pc under history hist, keeping the
// lookup for slot.
func (p *Predictor) PredictSlot(slot int, pc, hist uint64) predictor.AddrLookup {
	lk := p.LookupWith(pc, hist)
	p.slotLk[slot] = lk
	return predictor.AddrLookup{Addr: lk.Addr, Way: lk.Way, Hit: lk.Hit, Confident: lk.Confident}
}

// TrainSlot trains slot's lookup and reports a lookup-to-train tag alias.
func (p *Predictor) TrainSlot(slot int, _, addr uint64, sizeLog2 uint8, way int8) bool {
	return p.Train(p.slotLk[slot], addr, sizeLog2, way).Alias()
}
