// Package tournament implements the chooser from the paper's Section 5.2.3
// "Combining VTAGE and DLVP": both predictors run concurrently and a
// PC-indexed table of 2-bit counters picks which one supplies the final
// prediction for each static load. DLVP is the chooser's address side
// (predictor.SideAddress), VTAGE its value side (predictor.SideValue).
package tournament

import "dlvp/internal/predictor"

// Config parameterises the chooser table.
type Config struct {
	Entries int
}

// DefaultConfig returns a 1k-entry chooser.
func DefaultConfig() Config { return Config{Entries: 1024} }

// Chooser is the PC-indexed 2-bit tournament selector. Counter semantics:
// 0-1 favour DLVP, 2-3 favour VTAGE; updates move toward whichever
// component was correct when exactly one of them was.
type Chooser struct {
	cfg     Config
	counter []uint8

	ChoseDLVP  uint64
	ChoseVTAGE uint64
}

// New returns a chooser.
func New(cfg Config) *Chooser {
	if cfg.Entries == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Entries&(cfg.Entries-1) != 0 {
		panic("tournament: Entries must be a power of two")
	}
	c := &Chooser{cfg: cfg, counter: make([]uint8, cfg.Entries)}
	for i := range c.counter {
		c.counter[i] = 1 // weakly favour DLVP, which delivers more predictions
	}
	return c
}

func (c *Chooser) index(pc uint64) uint32 {
	return uint32(predictor.MixPC(pc)) & uint32(c.cfg.Entries-1)
}

// Choose picks the provider given each component's confidence for the load
// at pc. When only one component is confident it wins outright; when both
// are, the counter decides.
func (c *Chooser) Choose(pc uint64, dlvpReady, vtageReady bool) predictor.Side {
	switch {
	case !dlvpReady && !vtageReady:
		return predictor.SideNone
	case dlvpReady && !vtageReady:
		c.ChoseDLVP++
		return predictor.SideAddress
	case !dlvpReady && vtageReady:
		c.ChoseVTAGE++
		return predictor.SideValue
	}
	if c.counter[c.index(pc)] >= 2 {
		c.ChoseVTAGE++
		return predictor.SideValue
	}
	c.ChoseDLVP++
	return predictor.SideAddress
}

// Train updates the counter from the components' actual outcomes; it only
// learns when the components disagree (the standard tournament rule).
func (c *Chooser) Train(pc uint64, dlvpCorrect, vtageCorrect bool) {
	if dlvpCorrect == vtageCorrect {
		return
	}
	i := c.index(pc)
	if vtageCorrect {
		if c.counter[i] < 3 {
			c.counter[i]++
		}
	} else if c.counter[i] > 0 {
		c.counter[i]--
	}
}

// StorageBits returns the chooser budget in bits.
func (c *Chooser) StorageBits() int { return c.cfg.Entries * 2 }
