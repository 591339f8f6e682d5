package uarch

import (
	"dlvp/internal/predictor"
	"dlvp/internal/trace"
)

// renameStage renames up to FetchWidth instructions per cycle in program
// order, subject to ROB/IQ/LDQ/STQ/physical-register availability. Rename
// is also where the Value Prediction Engine installs predicted values into
// the PVT: a prediction is usable only if it reached the VPE by now (for
// DLVP, the probe round trip must beat the load to rename), and at most
// MaxPredictionsPerCycle destination values are installed per cycle (the
// PVT's write ports).
func (c *Core) renameStage() {
	vpBudget := c.cfg.VP.MaxPredictionsPerCycle
	w := &c.a.w
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.renameSeq >= c.fetchSeq {
			return
		}
		seq := c.renameSeq
		slot := seq & windowMask
		f := w.flags[slot]
		if f&fValid == 0 || f&fRenamed != 0 || w.renameReady[slot] > c.now {
			return
		}
		rec := c.rec(seq)
		if c.robCount >= c.cfg.ROBSize || c.iqCount >= c.cfg.IQSize {
			return
		}
		if rec.IsLoad() && c.ldqCount >= c.cfg.LDQSize {
			return
		}
		if rec.IsStore() && c.stqCount >= c.cfg.STQSize {
			return
		}
		nd := int(rec.NDst)
		if nd > c.freeRegs {
			return
		}

		w.flags[slot] |= fRenamed
		w.renameCycle[slot] = c.now
		c.freeRegs -= nd
		c.frontCount--
		c.robCount++
		if rec.IsLoad() {
			c.ldqCount++
		}
		if rec.IsStore() {
			c.stqCount++
		}
		c.installPrediction(seq, rec, &vpBudget)
		c.a.iqBits[slot>>6] |= 1 << (slot & 63)
		c.a.activeBits[slot>>6] |= 1 << (slot & 63)
		c.iqCount++
		c.renameSeq++
	}
}

// installPrediction decides, at rename, which value prediction (if any) is
// installed in the PVT for this instruction, honouring the per-cycle write
// budget, PVT capacity, and the oracle-replay model.
func (c *Core) installPrediction(seq uint64, rec *trace.Rec, vpBudget *int) {
	nd := int(rec.NDst)
	if nd == 0 || nd > trace.MaxDests {
		return
	}
	w := &c.a.w
	slot := seq & windowMask
	f := w.flags[slot]
	cd := c.cold(seq)

	addrReady := f&fProbeDone != 0 && f&fProbeHit != 0 && cd.probeDeliver <= c.now
	if f&fProbeDone != 0 && f&fProbeHit != 0 && cd.probeDeliver > c.now {
		c.stats.VPDropLate++
	}
	valueReady := f&fValueConf != 0

	// The chooser arbitrates when present; otherwise at most one component
	// is attached, and only an attached component can be ready.
	side := predictor.SideNone
	switch {
	case c.chooser != nil:
		side = c.chooser.Choose(rec.PC, addrReady, valueReady)
	case addrReady:
		side = predictor.SideAddress
	case valueReady:
		side = predictor.SideValue
	}
	if side == predictor.SideNone {
		return
	}

	// Assemble the per-destination predicted values directly in the cold
	// slot: every reader is gated by fVpMade and bounded by this record's
	// destination count, so a dropped install leaves no observable state.
	count := 0
	switch side {
	case predictor.SideAddress:
		for j := 0; j < nd; j++ {
			cd.vpVals[j] = cd.probeVals[j]
			cd.vpPerDest[j] = true
			count++
		}
	case predictor.SideValue:
		for j := 0; j < nd; j++ {
			ok := cd.valConf[j]
			cd.vpVals[j] = cd.valPred[j]
			cd.vpPerDest[j] = ok
			if ok {
				count++
			}
		}
	}
	if count == 0 {
		return
	}
	if count > *vpBudget {
		c.stats.VPDropBudget++
		return
	}
	if c.pvtCount+count > c.cfg.PVTEntries {
		c.stats.VPDropPVTFull++
		return
	}

	if c.cfg.VP.OracleReplay && !vpCorrect(cd, rec) {
		// Oracle replay: the misprediction is converted into a
		// no-prediction — counted, never flushed, never woken early.
		w.flags[slot] |= fVpOracleDropped
		cd.vpSource = side
		return
	}

	*vpBudget -= count
	c.pvtCount += count
	c.pvtWrites += uint64(count)
	c.wakeWaiters(int(slot)) // dependents sleeping on this producer can now issue
	w.flags[slot] |= fVpMade
	cd.vpSource = side
	cd.vpNumDests = count
}

// probeStage pops Predicted Address Queue entries on load-store lane
// bubbles and probes the L1D (DLVP steps 3-5). The number of bubbles is
// computed by issueStage (memIssued of the *previous* selection); probes
// read the committed-memory image, so a store committing after the probe
// leaves the probed value stale — the paper's in-flight-store hazard.
func (c *Core) probeStage() {
	bubbles := c.loadPortsFreeThisCycle
	w := &c.a.w
	for b := 0; b < bubbles && c.paqLen() > 0; {
		// Peek first: an entry still in transit to the back end stays
		// queued without consuming a bubble.
		pe := *c.paqAt(0)
		if pe.allocated > c.now {
			return
		}
		c.paqHead++
		if c.now-pe.allocated > uint64(c.cfg.PAQLifetime) {
			c.stats.PAQDropped++
			continue // dropped without consuming a bubble
		}
		if !c.live(pe.seq) {
			continue // squashed in the meantime
		}
		slot := pe.seq & windowMask
		if w.flags[slot]&fRenamed != 0 {
			// Too late: the load already passed rename.
			c.stats.PAQDropped++
			continue
		}
		b++
		res := c.hier.Probe(pe.addr, int(pe.way))
		w.flags[slot] |= fProbeDone
		if res.TLBMiss {
			w.flags[slot] |= fProbeTLB
		}
		if res.Outcome.Hit() {
			w.flags[slot] |= fProbeHit
			c.cold(pe.seq).probeDeliver = c.now + uint64(res.Latency) + 1 // +1 transfer to VPE
			c.readProbedValues(pe.seq, pe.addr)
		} else if c.cfg.VP.ProbePrefetch {
			c.hier.Prefetch(c.now, pe.addr)
			c.stats.Prefetches++ // DLVP-generated (the stride prefetcher is counted separately)
		}
	}
}

// readProbedValues reads the committed-memory image at the predicted
// address, reconstructing every destination value exactly as the load
// would (sizes, sign extension, pair/multiple layout, post-index base).
func (c *Core) readProbedValues(seq uint64, addr uint64) {
	cd := c.cold(seq)
	cd.probeVals = [trace.MaxDests]uint64{}
	if inst := c.prog.InstAt(c.rec(seq).PC); inst != nil {
		c.readLoadValues(inst, addr, &cd.probeVals)
	}
}
