// Package dvtage implements D-VTAGE (Perais & Seznec, HPCA 2015 "BeBoP"),
// the differential variant of VTAGE the paper discusses as related work:
// a last-value table (LVT) sits in front of the tagged history tables, and
// the tables store *strides* (deltas) rather than full values; the
// prediction is lastValue + delta. This captures strided value sequences a
// plain VTAGE cannot, at the cost of an addition on the prediction critical
// path and a speculative window for in-flight last values (the paper's
// stated complexity objections). This implementation trains at execute and
// omits the speculative window, the same simplification the rest of the
// repository applies.
package dvtage

import (
	"dlvp/internal/isa"
	"dlvp/internal/predictor"
)

// Config parameterises D-VTAGE.
type Config struct {
	LVTEntries   int
	TableEntries int
	Histories    []uint8
	TagBits      uint8
	DeltaBits    uint8 // stride field width; out-of-range strides don't allocate
	LoadsOnly    bool
	Seed         uint64
}

// DefaultConfig returns a budget-comparable configuration: a 512-entry LVT
// plus three 256-entry delta tables (histories {0,5,13} like the paper's
// VTAGE).
func DefaultConfig() Config {
	return Config{
		LVTEntries:   512,
		TableEntries: 256,
		Histories:    []uint8{0, 5, 13},
		TagBits:      12,
		DeltaBits:    16,
		LoadsOnly:    true,
		Seed:         0xd7a,
	}
}

type lvtEntry struct {
	tag   uint16
	last  uint64
	valid bool
}

type deltaEntry struct {
	tag   uint16
	delta int64
	conf  uint8
	valid bool
}

// Predictor is the D-VTAGE value predictor.
type Predictor struct {
	cfg    Config
	lvt    []lvtEntry
	tables [][]deltaEntry
	fpc    *predictor.FPC
	rng    *predictor.Rand

	Lookups uint64
	Hits    uint64

	slotLk predictor.SlotContexts[Lookup] // per-window-slot lookups (NewWindowed)
}

// New returns a D-VTAGE predictor.
func New(cfg Config) *Predictor {
	if cfg.LVTEntries == 0 {
		cfg = DefaultConfig()
	}
	if cfg.LVTEntries&(cfg.LVTEntries-1) != 0 || cfg.TableEntries&(cfg.TableEntries-1) != 0 {
		panic("dvtage: table sizes must be powers of two")
	}
	rng := predictor.NewRand(cfg.Seed)
	p := &Predictor{
		cfg: cfg,
		lvt: make([]lvtEntry, cfg.LVTEntries),
		fpc: predictor.VTAGEConfidenceFPC(rng),
		rng: rng,
	}
	for range cfg.Histories {
		p.tables = append(p.tables, make([]deltaEntry, cfg.TableEntries))
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

// Lookup carries a probe result and the training context.
type Lookup struct {
	Key       uint64
	Hist      uint64
	LVTIndex  uint32
	LVTTag    uint16
	LVTHit    bool
	Last      uint64
	Provider  int8
	Index     [8]uint32
	Tag       [8]uint16
	Delta     int64
	Confident bool
	Value     uint64 // Last + Delta
}

func (p *Predictor) lvtIndexTag(key uint64) (uint32, uint16) {
	m := predictor.MixPC(key)
	return uint32(m) & uint32(p.cfg.LVTEntries-1),
		uint16(m>>17) & uint16(1<<p.cfg.TagBits-1)
}

func (p *Predictor) indexTag(table int, key, hist uint64) (uint32, uint16) {
	hb := p.cfg.Histories[table]
	idxBits := uint8(0)
	for n := p.cfg.TableEntries; n > 1; n >>= 1 {
		idxBits++
	}
	m := predictor.MixPC(key) + uint64(table)*0xd1ed
	idx := (uint32(m) ^ uint32(predictor.Fold(hist, hb, idxBits))) & uint32(p.cfg.TableEntries-1)
	tag := (uint16(m>>12) ^ uint16(predictor.Fold(hist, hb, p.cfg.TagBits))) &
		uint16(1<<p.cfg.TagBits-1)
	return idx, tag
}

// PredictWith probes D-VTAGE for destination destIdx of the instruction at
// pc under branch history hist. A confident prediction requires both an LVT
// hit (the base value) and a confident delta provider.
func (p *Predictor) PredictWith(pc uint64, destIdx int, hist uint64) Lookup {
	p.Lookups++
	key := pc<<4 | uint64(destIdx&0xf)<<2
	lk := Lookup{Key: key, Hist: hist, Provider: -1}
	lk.LVTIndex, lk.LVTTag = p.lvtIndexTag(key)
	e := &p.lvt[lk.LVTIndex]
	if e.valid && e.tag == lk.LVTTag {
		lk.LVTHit = true
		lk.Last = e.last
	}
	for t := range p.tables {
		idx, tag := p.indexTag(t, key, hist)
		lk.Index[t], lk.Tag[t] = idx, tag
		d := &p.tables[t][idx]
		if d.valid && d.tag == tag {
			lk.Provider = int8(t)
			lk.Delta = d.delta
			lk.Confident = p.fpc.Saturated(d.conf) && lk.LVTHit
		}
	}
	if lk.Provider >= 0 && lk.LVTHit {
		p.Hits++
		lk.Value = lk.Last + uint64(lk.Delta)
	}
	return lk
}

// Eligible applies the value-prediction targeting rules (no opcode filter).
func (p *Predictor) Eligible(op isa.Op, nDests int) bool {
	return predictor.Targetable(op, nDests, p.cfg.LoadsOnly)
}

// Train updates the LVT and the delta tables after execution.
func (p *Predictor) Train(lk Lookup, actual uint64) {
	// The observed delta only exists relative to a known last value.
	if lk.LVTHit {
		observed := int64(actual - lk.Last)
		fits := observed >= -(1<<(p.cfg.DeltaBits-1)) && observed < 1<<(p.cfg.DeltaBits-1)
		if lk.Provider >= 0 {
			t := int(lk.Provider)
			d := &p.tables[t][lk.Index[t]]
			if d.valid && d.tag == lk.Tag[t] {
				if d.delta == observed {
					d.conf = p.fpc.Bump(d.conf)
				} else {
					if d.conf == 0 && fits {
						d.delta = observed
					} else {
						d.conf = 0
					}
					if t+1 < len(p.tables) && fits {
						p.allocate(t+1+int(p.rng.Next()%uint64(len(p.tables)-t-1)), lk, observed)
					}
				}
			}
		} else if fits {
			p.allocate(0, lk, observed)
		}
	}
	// LVT always tracks the most recent value.
	e := &p.lvt[lk.LVTIndex]
	if !e.valid || e.tag != lk.LVTTag {
		*e = lvtEntry{tag: lk.LVTTag, last: actual, valid: true}
		return
	}
	e.last = actual
}

func (p *Predictor) allocate(t int, lk Lookup, delta int64) {
	d := &p.tables[t][lk.Index[t]]
	if d.valid && d.tag != lk.Tag[t] && d.conf > 0 {
		d.conf--
		return
	}
	*d = deltaEntry{tag: lk.Tag[t], delta: delta, conf: 0, valid: true}
}

// StorageBits returns the total budget in bits: LVT (tag + 64-bit value)
// plus delta tables (tag + delta + 3-bit confidence).
func (p *Predictor) StorageBits() int {
	lvt := p.cfg.LVTEntries * (int(p.cfg.TagBits) + 64)
	tab := len(p.tables) * p.cfg.TableEntries *
		(int(p.cfg.TagBits) + int(p.cfg.DeltaBits) + 3)
	return lvt + tab
}

// Name (the energy-meter structure name), LookupCount (per-destination
// lookups) and LoadsOnly serve predictor.ValuePredictor.
func (p *Predictor) Name() string        { return "DVTAGE" }
func (p *Predictor) LookupCount() uint64 { return p.Lookups }
func (p *Predictor) LoadsOnly() bool     { return p.cfg.LoadsOnly }

// PredictSlot predicts destination dest of the instruction at pc under
// history hist, keeping the lookup for slot.
func (p *Predictor) PredictSlot(slot, dest int, pc, hist uint64) (uint64, bool) {
	lk := p.PredictWith(pc, dest, hist)
	*p.slotLk.At(slot, dest) = lk
	return lk.Value, lk.Confident
}

// TrainSlot trains slot's lookup for dest with the executed value (op is
// unused).
func (p *Predictor) TrainSlot(slot, dest int, _ isa.Op, actual uint64) {
	p.Train(*p.slotLk.At(slot, dest), actual)
}
