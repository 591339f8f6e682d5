package uarch

import (
	"dlvp/internal/timeline"
)

// EnableTimeline attaches a flight recorder that samples the core's
// cumulative counters every intervalInstrs committed instructions into a
// ring of at most capacity samples (zeros select the timeline package
// defaults). Call before Run. The returned recorder may be read
// concurrently while the simulation runs (live streaming); the finished
// Timeline is available from Core.Timeline after Run.
//
// Sampling is off by default. When off, the commit path pays one nil
// check per committed instruction; when on, it adds a counter decrement,
// with the full snapshot taken only at interval boundaries
// (BenchmarkTimelineOverhead holds the slowdown under 1%).
func (c *Core) EnableTimeline(intervalInstrs uint64, capacity int) *timeline.Recorder {
	c.tl = timeline.NewRecorder(intervalInstrs, capacity)
	c.tlCountdown = c.tl.IntervalInstrs()
	return c.tl
}

// Timeline returns the finished flight-recorder timeline (nil unless
// EnableTimeline was called; valid after Run).
func (c *Core) Timeline() *timeline.Timeline { return c.timeline }

// tlTick is called once per committed instruction, after that
// instruction's statistics (including value-prediction accounting) have
// landed, so an interval boundary snapshot always includes the
// just-committed instruction.
func (c *Core) tlTick() {
	c.tlCountdown--
	if c.tlCountdown == 0 {
		c.tlCountdown = c.tl.IntervalInstrs()
		c.tlSample(false)
	}
}

// tlSample snapshots the cumulative counters into the recorder; final
// closes the recorder, recording any tail interval.
func (c *Core) tlSample(final bool) {
	var cum timeline.Counters
	c.tlCumulative(&cum)
	if final {
		c.timeline = c.tl.Finish(cum, c.tlPAQPeak, c.stats.Workload, c.stats.Scheme)
	} else {
		c.tl.Sample(cum, c.tlPAQPeak)
	}
	c.tlPAQPeak = c.paqLen()
}

// tlCumulative fills cum with the core's monotone counters. Everything is
// read from the live structures (stats fields that finalizeStats derives,
// like Probes, come straight from the hierarchy), so snapshots are valid
// mid-run without allocation.
func (c *Core) tlCumulative(cum *timeline.Counters) {
	cum.Instructions = c.stats.Instructions
	cum.Cycles = c.now
	cum.Loads = c.stats.Loads
	cum.Stores = c.stats.Stores
	cum.VPEligible = c.stats.VP.Eligible
	cum.VPPredicted = c.stats.VP.Predicted
	cum.VPCorrect = c.stats.VP.Correct
	cum.ValueFlushes = c.stats.ValueFlushes
	cum.BranchFlushes = c.stats.BranchFlushes
	cum.OrderFlushes = c.stats.OrderFlushes
	cum.ValueReplays = c.stats.ValueReplays
	cum.PAQAllocated = c.stats.PAQAllocated
	cum.PAQDropped = c.stats.PAQDropped
	cum.PAQFull = c.stats.PAQFull
	cum.Prefetches = c.stats.Prefetches
	if c.lscd != nil {
		cum.LSCDInserts = c.lscd.Inserts
		cum.LSCDFiltered = c.lscd.Filtered
	}
	if c.ap != nil {
		apt := c.ap.APTCounters()
		cum.APTLookups = apt.Lookups
		cum.APTHits = apt.Hits
		cum.APTAllocations = apt.Allocations
		cum.APTConfResets = apt.ConfResets
		cum.APTTagAliases = apt.TagAliases
		cum.FPCBumps = apt.ConfBumps
		cum.FPCSaturations = apt.ConfSaturations
	}
	m := c.hier.Counters()
	cum.Probes = m.Probes
	cum.ProbeHits = m.ProbeHits
	cum.L1DAccesses = m.L1DAccesses
	cum.L1DMisses = m.L1DMisses
	cum.L2Accesses = m.L2Accesses
	cum.L2Misses = m.L2Misses
	cum.L3Accesses = m.L3Accesses
	cum.L3Misses = m.L3Misses
	cum.TLBAccesses = m.TLBAccesses
	cum.TLBMisses = m.TLBMisses
}
