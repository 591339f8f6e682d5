package uarch

import (
	"dlvp/internal/predictor"
	"dlvp/internal/siteprof"
)

// EnableSiteProfile attaches a per-load-site misprediction attribution
// collector tracking at most maxSites static load PCs (0 selects the
// siteprof package default). Call before Run. The returned collector may
// be read concurrently while the simulation runs (Snapshot); the finished
// profile is available from Core.SiteProfile after Run.
//
// Profiling is off by default. When off, the commit path pays one nil
// check per eligible instruction; when on, each committed eligible load
// adds a classification (a handful of field compares) and one counter
// update behind a direct-mapped PC cache (BenchmarkSiteprofOverhead holds
// the slowdown under 3%).
//
// Under a sample window (SetSampleWindow), warm-up commits are excluded so
// the profile covers exactly the measured region and per-site sums stay
// reconcilable with MeasuredCounters.
func (c *Core) EnableSiteProfile(maxSites int) *siteprof.Collector {
	c.sp = siteprof.NewCollector(maxSites, c.stats.Workload, c.stats.Scheme)
	return c.sp
}

// SiteProfile returns the finished per-site attribution profile (nil
// unless EnableSiteProfile was called; valid after Run).
func (c *Core) SiteProfile() *siteprof.Profile { return c.siteProfile }

// spRecord classifies one committed statistics-eligible instruction and
// feeds it to the collector. Called from accountPrediction behind a nil
// check, with the (predicted, correct) outcome it already computed, so the
// per-site Eligible/Predicted/Correct partition matches the aggregate
// stats.VP accounting by construction.
func (c *Core) spRecord(seq uint64, predicted, correct bool) {
	if c.wmArmed && (!c.wmDone || c.mdDone) {
		// Outside the measured region: still warming up, or the bounded
		// window already closed (the closing cycle can retire a few more
		// instructions before Run observes the stop request).
		return
	}
	f := c.a.w.flags[seq&windowMask]
	ev := siteprof.Event{Cause: c.spCause(seq, predicted, correct)}
	if f&fProbeDone != 0 {
		ev.Probed = true
		ev.ProbeHit = f&fProbeHit != 0
		ev.ProbeTLB = f&fProbeTLB != 0
	}
	if f&fVpMade != 0 && !correct {
		if c.cfg.VP.SelectiveReplay {
			ev.Replay = true
		} else {
			// Estimated recovery cost of this mispredict's flush: the
			// value-check penalty plus refilling the front of the pipe.
			ev.FlushCycles = uint64(c.cfg.ValueCheckPenalty) + uint64(c.cfg.FrontLatency)
		}
	}
	c.sp.Record(c.rec(seq).PC, ev)
}

// spCause derives the attribution cause from the evidence already on the
// window entry: the fetch-time address lookup, the LSCD decision, the
// probe outcome, the train-time alias report, and the committed record's
// actual address.
func (c *Core) spCause(seq uint64, predicted, correct bool) siteprof.Cause {
	if correct {
		return siteprof.CauseCorrect
	}
	f := c.a.w.flags[seq&windowMask]
	cd := c.cold(seq)
	if predicted {
		// A prediction was made (or oracle-suppressed) and was wrong: why?
		if cd.vpSource == predictor.SideValue || f&fAddrLk == 0 {
			return siteprof.CauseValueWrong // value-side miss, no address context
		}
		if cd.addrLk.Addr == c.rec(seq).Addr {
			// Right address, wrong value: a store rewrote the location
			// between the probe and the load — the paper's Challenge #1.
			return siteprof.CauseStoreConflict
		}
		if f&fAddrAlias != 0 {
			// Training found the predictor entry reallocated between lookup
			// and train: the predicted address belonged to an aliasing site.
			return siteprof.CauseTagAlias
		}
		return siteprof.CauseAddrMispredict
	}
	// No prediction was made: walk the pipeline backwards to the first
	// stage that dropped it.
	switch {
	case f&fLscdSkip != 0:
		return siteprof.CauseLSCDFiltered
	case f&fAddrLk != 0:
		if !cd.addrLk.Hit {
			return siteprof.CauseAPTMiss
		}
		if !cd.addrLk.Confident {
			return siteprof.CauseConfidenceDropped
		}
		// Confident at fetch but nothing installed: lost to PAQ overflow,
		// lifetime expiry, a late or missing probe, the install budget, or
		// a full PVT.
		return siteprof.CausePAQDrop
	default:
		return siteprof.CauseUnpredicted
	}
}

// spFinish freezes the collector into the run's profile, scoped to the
// measured region when a sample window was armed and completed.
func (c *Core) spFinish() {
	instrs := c.stats.Instructions
	if c.wmArmed {
		if meas, ok := c.MeasuredCounters(); ok {
			instrs = meas.Instructions
		}
	}
	c.siteProfile = c.sp.Finish(instrs)
}
