package uarch

import (
	"dlvp/internal/isa"
	"dlvp/internal/trace"
)

// fetchStage models the in-order front end: one fetch group per cycle (up
// to FetchWidth instructions, ending at a taken branch), branch prediction
// with speculative history updates, and fetch-time address prediction (up
// to two loads per group) and value prediction.
func (c *Core) fetchStage() {
	if c.now < c.fetchStallUntil || c.haltSeen {
		return
	}
	groupStart := true
	var groupExtra int
	// Loads in a group predict under the group-start load-path history;
	// lph tracks the history after each fetched instruction.
	lphistAtGroup := uint64(0)
	if c.ap != nil {
		lphistAtGroup = c.ap.HistorySnapshot()
	}
	lph := lphistAtGroup
	loadsInGroup := 0
	w := &c.a.w

	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.frontCount >= frontQCap || c.fetchSeq-c.headSeq >= windowCap-8 {
			return
		}
		rec := c.recAt(c.fetchSeq)
		if rec == nil {
			return // trace exhausted
		}
		if groupStart {
			groupExtra = c.hier.Fetch(c.now, rec.PC)
			groupStart = false
		}

		seq := c.fetchSeq
		slot := seq & windowMask
		fl := fValid
		if rec.IsLoad() {
			fl |= fIsLoad
		} else if rec.IsStore() {
			fl |= fIsStore
		}
		w.flags[slot] = fl
		w.fetchCycle[slot] = c.now
		w.notBefore[slot] = 0
		c.a.waiters[slot] = c.a.waiters[slot][:0] // drop a squashed occupant's sleepers
		w.renameReady[slot] = c.now + uint64(c.cfg.FrontLatency) + uint64(groupExtra)

		// Register dependencies against the last in-flight writers. Unused
		// source slots are zeroed so the scheduler can scan all of them.
		w.deps[slot] = [trace.MaxSrcs]uint64{}
		for i := 0; i < int(rec.NSrc); i++ {
			w.deps[slot][i] = c.lastWriter[rec.Src[i]]
		}

		// Branch prediction.
		stall := false
		if rec.Op.IsBranch() {
			stall = c.fetchBranch(seq, rec)
		}

		// Load handling: MDP consultation, load-path history, address and
		// value prediction.
		if rec.IsLoad() {
			if c.mdp.ShouldWait(rec.PC) || rec.Op.IsOrdered() {
				w.flags[slot] |= fMdpWait
			}
			c.fetchAddressPrediction(seq, rec, lphistAtGroup, loadsInGroup)
			loadsInGroup++
			if c.ap != nil {
				c.ap.PushLoad(rec.PC)
				lph = c.ap.HistorySnapshot()
			}
			c.a.ldqIdx.push(seq)
		}
		if c.vp != nil {
			c.fetchValuePrediction(seq, rec)
		}
		if rec.IsStore() {
			c.a.pendingStores = append(c.a.pendingStores, seq)
			c.a.stqIdx.push(seq)
		}

		// Update the in-flight writer map and take recovery snapshots.
		nd := int(rec.NDst)
		for j := 0; j < nd; j++ {
			c.lastWriter[rec.Dst[j]] = seq + 1
		}
		w.ghistAfter[slot] = c.ghist.Value()
		if rec.Op.IsCondBranch() {
			// The post-instruction snapshot must hold the *actual* outcome
			// so that squash recovery repairs a wrongly speculated bit.
			w.ghistAfter[slot] = w.ghistBefore[slot]<<1 | b2u(rec.Taken)
		}
		w.lphistAfter[slot] = lph

		c.frontCount++
		c.fetchSeq++
		if rec.Op == isa.HALT {
			c.haltSeen = true
			c.haltSeq = seq
			return
		}
		if stall {
			// Mispredicted branch: the front end cannot follow the wrong
			// path in a trace-driven model; stall until resolution.
			c.fetchStallUntil = ^uint64(0) >> 1
			return
		}
		if rec.Op.IsBranch() && rec.Taken {
			// Correctly predicted taken branch ends the fetch group.
			return
		}
	}
}

// fetchBranch predicts the branch, updates speculative state, and reports
// whether the front end must stall (misprediction).
func (c *Core) fetchBranch(seq uint64, rec *trace.Rec) bool {
	w := &c.a.w
	slot := seq & windowMask
	before := c.ghist.Value()
	w.ghistBefore[slot] = before
	mispredict := false
	switch rec.Op.Class() {
	case isa.ClassBr:
		if rec.Op.IsCondBranch() {
			pred := c.tage.PredictLk(&c.cold(seq).tageLk, rec.PC, before)
			mispredict = pred != rec.Taken
			// Speculative history receives the predicted bit; recovery later
			// repairs it with the actual outcome (see fetchStage).
			c.ghist.Push(pred)
		}
		// Unconditional B: target known at decode, no misprediction.
	case isa.ClassCall:
		c.ras.Push(rec.PC + 4)
		c.cold(seq).rasAfter = c.ras.Snapshot()
		w.flags[slot] |= fHasRasAfter
	case isa.ClassRet:
		tgt, ok := c.ras.Pop()
		c.cold(seq).rasAfter = c.ras.Snapshot()
		w.flags[slot] |= fHasRasAfter
		mispredict = !ok || tgt != rec.Target
	case isa.ClassJmp:
		tgt, ok := c.ittage.Predict(rec.PC, before)
		mispredict = !ok || tgt != rec.Target
	}
	if mispredict {
		w.flags[slot] |= fBrMispredict
	}
	return mispredict
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fetchAddressPrediction probes the address predictor for a load at fetch
// (DLVP step 1) and enqueues a confident prediction into the PAQ (step 2).
// Only the first two loads of a fetch group are predicted; memory-ordering
// loads and LSCD-blacklisted loads are excluded.
func (c *Core) fetchAddressPrediction(seq uint64, rec *trace.Rec, lphist uint64, loadIdx int) {
	if c.ap == nil {
		return
	}
	if rec.Op.IsOrdered() {
		return
	}
	if loadIdx >= 2 {
		c.stats.GroupSlotMissed++
		return
	}
	w := &c.a.w
	slot := seq & windowMask
	if c.lscd != nil && c.lscd.Contains(rec.PC) {
		w.flags[slot] |= fLscdSkip
		return
	}
	// The paper indexes with the fetch group address as a proxy for the
	// load PC (their fetch groups are aligned, making the FGA stable per
	// static load). This front end forms groups at arbitrary boundaries,
	// so the load PC itself is the faithful equivalent of that stable key;
	// the two-loads-per-group limit still applies.
	lk := c.ap.PredictSlot(int(slot), rec.PC, lphist)
	c.cold(seq).addrLk = lk
	w.flags[slot] |= fAddrLk
	if !lk.Confident {
		return
	}
	if c.paqLen() >= c.cfg.PAQEntries {
		c.stats.PAQFull++
		return // PAQ full: prediction lost
	}
	*c.paqAt(c.paqLen()) = paqEntry{
		seq: seq, addr: lk.Addr, way: lk.Way,
		// One cycle for prediction, one to ship to the back end.
		allocated: c.now + 2,
	}
	c.paqTail++
	w.flags[slot] |= fPaqIssued
	c.stats.PAQAllocated++
	if c.tl != nil && c.paqLen() > c.tlPAQPeak {
		c.tlPAQPeak = c.paqLen()
	}
}

// fetchValuePrediction makes fetch-time value predictions for every
// destination of an eligible instruction, using the branch history at
// fetch.
func (c *Core) fetchValuePrediction(seq uint64, rec *trace.Rec) {
	nd := int(rec.NDst)
	if nd > trace.MaxDests {
		nd = trace.MaxDests
	}
	if !c.vp.Eligible(rec.Op, nd) {
		return
	}
	slot := seq & windowMask
	c.a.w.flags[slot] |= fValueLk
	cd := c.cold(seq)
	hist := c.ghist.Value()
	for j := 0; j < nd; j++ {
		v, ok := c.vp.PredictSlot(int(slot), j, rec.PC, hist)
		cd.valPred[j], cd.valConf[j] = v, ok
		if ok {
			c.a.w.flags[slot] |= fValueConf
		}
	}
}
