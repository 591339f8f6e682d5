// Package cap implements the Correlated Address Predictor of Bekerman et
// al. (ISCA 1999), the context-based address-prediction baseline the paper
// compares PAP against. CAP keeps context *per static load*: a Load Buffer
// table records each load's recent-address history, and that history
// indexes a second structure, the Link Table, holding the predicted next
// address. CAP captures both stride and non-stride patterns, but pays for
// per-load context twice: extra storage (a history field per load) and
// complicated speculative-history management (the paper's Section 2.2 —
// snapshot restoration is serial in program order; this model, like the
// paper's evaluation, trains at execute).
package cap

import "dlvp/internal/predictor"

// Config parameterises CAP. The paper's configuration (Table 4): two
// 1k-entry direct-mapped tables; load-buffer entries carry a 14-bit tag,
// 2-bit (FPC) confidence, 8-bit offset and 16-bit history; link entries a
// 14-bit tag and a 24-bit (ARMv7) or 41-bit (ARMv8) link.
type Config struct {
	LoadBufferEntries int
	LinkEntries       int
	TagBits           uint8
	HistBits          uint8
	// Confidence is the expected number of address observations required to
	// establish confidence; the paper sweeps 3..64 (CAP's original design
	// point is 3; matching PAP's accuracy requires 64).
	Confidence int
	AddrBits   uint8 // 32 (ARMv7) or 49 (ARMv8); link field is AddrBits-8
	Seed       uint64
}

// DefaultConfig returns the paper's CAP configuration with the
// best-performing confidence from their sweep (24).
func DefaultConfig() Config {
	return Config{
		LoadBufferEntries: 1024,
		LinkEntries:       1024,
		TagBits:           14,
		HistBits:          16,
		Confidence:        24,
		AddrBits:          49,
		Seed:              0xca9,
	}
}

// ConfidenceVector maps a requested confidence level onto a forward
// probabilistic counter probability vector whose expected saturation count
// approximates that level, keeping counters narrow across the whole sweep.
func ConfidenceVector(level int) []uint32 {
	switch {
	case level <= 3:
		return []uint32{1, 1, 1}
	case level <= 8:
		return []uint32{1, 2, 4}
	case level <= 16:
		return []uint32{1, 2, 4, 8}
	case level <= 24:
		return []uint32{1, 2, 4, 16}
	case level <= 32:
		return []uint32{1, 2, 4, 8, 16}
	default:
		return []uint32{1, 2, 4, 8, 16, 32}
	}
}

type lbEntry struct {
	tag   uint16
	hist  uint16
	conf  uint8
	valid bool
}

type linkEntry struct {
	tag   uint16
	addr  uint64
	valid bool
}

// Predictor is the CAP address predictor.
type Predictor struct {
	cfg  Config
	lb   []lbEntry
	link []linkEntry
	fpc  *predictor.FPC

	Lookups uint64
	LBHits  uint64
	Links   uint64

	slotLk []Lookup // per-window-slot lookups (NewWindowed)
}

// New returns a CAP predictor.
func New(cfg Config) *Predictor {
	if cfg.LoadBufferEntries == 0 {
		cfg = DefaultConfig()
	}
	if cfg.LoadBufferEntries&(cfg.LoadBufferEntries-1) != 0 ||
		cfg.LinkEntries&(cfg.LinkEntries-1) != 0 {
		panic("cap: table sizes must be powers of two")
	}
	rng := predictor.NewRand(cfg.Seed)
	return &Predictor{
		cfg:  cfg,
		lb:   make([]lbEntry, cfg.LoadBufferEntries),
		link: make([]linkEntry, cfg.LinkEntries),
		fpc:  predictor.NewFPC(rng, ConfidenceVector(cfg.Confidence)...),
	}
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

// Lookup carries a CAP probe result plus the context needed to train later.
type Lookup struct {
	LBIndex   uint32
	LBTag     uint16
	LBHit     bool
	Hist      uint16 // the per-load history used to probe the link table
	LinkIndex uint32
	LinkTag   uint16
	LinkHit   bool
	Confident bool
	Addr      uint64
}

func (p *Predictor) lbIndexTag(pc uint64) (uint32, uint16) {
	m := predictor.MixPC(pc)
	idx := uint32(m) & uint32(p.cfg.LoadBufferEntries-1)
	tag := uint16(m>>16) & uint16(1<<p.cfg.TagBits-1)
	return idx, tag
}

func (p *Predictor) linkIndexTag(pc uint64, hist uint16) (uint32, uint16) {
	m := predictor.MixPC(pc) ^ uint64(hist)*0x9e37
	idx := uint32(m) & uint32(p.cfg.LinkEntries-1)
	tag := uint16(m>>13) & uint16(1<<p.cfg.TagBits-1)
	return idx, tag
}

// Lookup probes the load buffer with the load PC, then the link table with
// the recorded per-load address history. A prediction is made only when
// both probes hit and the load's confidence is saturated.
func (p *Predictor) Lookup(pc uint64) Lookup {
	p.Lookups++
	lbIdx, lbTag := p.lbIndexTag(pc)
	lk := Lookup{LBIndex: lbIdx, LBTag: lbTag}
	e := &p.lb[lbIdx]
	if !e.valid || e.tag != lbTag {
		return lk
	}
	p.LBHits++
	lk.LBHit = true
	lk.Hist = e.hist
	linkIdx, linkTag := p.linkIndexTag(pc, e.hist)
	lk.LinkIndex, lk.LinkTag = linkIdx, linkTag
	le := &p.link[linkIdx]
	if le.valid && le.tag == linkTag {
		p.Links++
		lk.LinkHit = true
		lk.Addr = le.addr
		lk.Confident = p.fpc.Saturated(e.conf)
	}
	return lk
}

// foldAddr compresses an address into the per-load history update token.
func foldAddr(addr uint64) uint16 {
	return uint16(addr>>3) ^ uint16(addr>>11) ^ uint16(addr>>19)
}

// Train updates CAP after the load executed. The link table learns the
// binding history -> actual address; the load buffer advances its per-load
// history and adjusts confidence by whether the link-table prediction from
// the *stored* context matched the executed address.
func (p *Predictor) Train(lk Lookup, pc uint64, actualAddr uint64) {
	e := &p.lb[lk.LBIndex]
	if !lk.LBHit || !e.valid || e.tag != lk.LBTag {
		// New static load (or aliased away): allocate fresh context.
		*e = lbEntry{tag: lk.LBTag, hist: foldAddr(actualAddr), conf: 0, valid: true}
		return
	}
	// Bind the observed context to the executed address.
	linkIdx, linkTag := p.linkIndexTag(pc, lk.Hist)
	le := &p.link[linkIdx]
	correct := lk.LinkHit && lk.Addr == actualAddr
	if correct {
		e.conf = p.fpc.Bump(e.conf)
	} else {
		e.conf = 0
		*le = linkEntry{tag: linkTag, addr: actualAddr, valid: true}
	}
	// Advance the per-load address history.
	e.hist = e.hist<<5 ^ foldAddr(actualAddr)
}

// LoadBufferEntryBits returns the storage of one load-buffer entry in bits
// (tag + confidence + 8-bit offset + history), per Table 4.
func (p *Predictor) LoadBufferEntryBits() int {
	return int(p.cfg.TagBits) + 2 + 8 + int(p.cfg.HistBits)
}

// LinkEntryBits returns the storage of one link entry in bits (tag + link;
// the paper's link is addr minus the 8-bit offset).
func (p *Predictor) LinkEntryBits() int {
	return int(p.cfg.TagBits) + int(p.cfg.AddrBits) - 8
}

// StorageBits returns the total budget in bits (paper: 78k ARMv7 / 95k ARMv8).
func (p *Predictor) StorageBits() int {
	return p.cfg.LoadBufferEntries*p.LoadBufferEntryBits() +
		p.cfg.LinkEntries*p.LinkEntryBits()
}

// PredictSlot looks up the load at pc, keeping the lookup for slot. CAP's
// context is per static load, so the load-path history hist is unused; a
// lookup hits when both tables hit.
func (p *Predictor) PredictSlot(slot int, pc, _ uint64) predictor.AddrLookup {
	lk := p.Lookup(pc)
	p.slotLk[slot] = lk
	return predictor.AddrLookup{Addr: lk.Addr, Way: -1, Hit: lk.LinkHit, Confident: lk.Confident}
}

// TrainSlot trains slot's lookup; CAP reports no tag aliases.
func (p *Predictor) TrainSlot(slot int, pc, addr uint64, _ uint8, _ int8) bool {
	p.Train(p.slotLk[slot], pc, addr)
	return false
}

// Name (the energy-meter structure name) and LookupCount serve
// predictor.AddressPredictor. CAP keeps no load-path history and has no
// APT: PushLoad, HistorySnapshot and RestoreHistory do nothing, and
// APTCounters is zero.
func (p *Predictor) Name() string                    { return "CAP" }
func (p *Predictor) LookupCount() uint64             { return p.Lookups }
func (p *Predictor) PushLoad(uint64)                 {}
func (p *Predictor) HistorySnapshot() uint64         { return 0 }
func (p *Predictor) RestoreHistory(uint64)           {}
func (p *Predictor) APTCounters() predictor.APTStats { return predictor.APTStats{} }
