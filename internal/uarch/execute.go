package uarch

import (
	"dlvp/internal/isa"
	"dlvp/internal/trace"
)

// executeStage retires functional-unit work: instructions whose completion
// time has arrived resolve branches (training the branch predictors and
// releasing a stalled front end), validate value predictions (flushing on a
// mismatch, per the paper's flush-based recovery), and train the address
// and value predictors — APT training happens "when the load executes"
// (Section 3.1.2).
//
// In-flight instructions live in the completion wheel, so each cycle drains
// only the bucket for this cycle rather than walking everything issued. The
// bucket's push order is issue order — the order side effects (predictor
// training, flush scheduling) happen in, part of the model's definition.
// Entries whose issue was undone (squash, selective replay) fail the stamp
// or flag checks and fall out here.
func (c *Core) executeStage() {
	w := &c.a.w
	bkt := &c.a.done[c.now&doneWheelMask]
	if len(*bkt) == 0 {
		return
	}
	ents := *bkt
	*bkt = ents[:0] // this cycle's pushes all target future buckets
	for i := 0; i < len(ents); i++ {
		seq := ents[i].seq
		if !c.live(seq) {
			continue
		}
		slot := seq & windowMask
		if w.issueCycle[slot] != ents[i].issuedAt {
			continue // a replayed instance re-issued; its new entry is elsewhere
		}
		f := w.flags[slot]
		if f&fIssued == 0 || f&fCompleted != 0 {
			continue
		}
		if w.execDone[slot] > c.now {
			// Only possible for a beyond-horizon completion that was
			// clamped at push; park it again.
			c.pushDone(seq, ents[i].issuedAt)
			continue
		}
		w.flags[slot] |= fCompleted

		rec := c.rec(seq)
		c.prfWrites += uint64(rec.NDst)
		if rec.Op.IsBranch() {
			if f&fTrained == 0 {
				c.resolveBranch(seq, rec)
			}
		} else {
			if f&fTrained == 0 {
				c.trainAddressPredictor(seq, rec) // only loads were looked up
				c.trainValuePredictor(seq, rec)
			}
			c.validatePrediction(seq, rec)
		}
		w.flags[slot] |= fTrained
	}
}

// pushDone parks an issued instruction in the completion wheel bucket for
// its execDone cycle. A completion beyond the horizon is clamped to the
// wheel's last bucket and re-parked when it pops early; a completion not in
// the future (possible only for the degenerate zero-latency case, since
// issue runs after execute in the cycle) is processed next cycle, exactly
// when the old in-flight walk would first have seen it.
func (c *Core) pushDone(seq, issuedAt uint64) {
	t := c.a.w.execDone[seq&windowMask]
	if t <= c.now {
		t = c.now + 1
	} else if t >= c.now+doneWheelSize {
		t = c.now + doneWheelSize - 1
	}
	c.a.done[t&doneWheelMask] = append(c.a.done[t&doneWheelMask], doneEnt{seq: seq, issuedAt: issuedAt})
}

// resolveBranch trains the direction/target predictors at resolution and,
// for a mispredicted branch, redirects the stalled front end and repairs
// the speculative global history.
func (c *Core) resolveBranch(seq uint64, rec *trace.Rec) {
	w := &c.a.w
	slot := seq & windowMask
	switch rec.Op.Class() {
	case isa.ClassBr:
		if rec.Op.IsCondBranch() {
			// Reuse the fetch-time lookup context: same (pc, hist), no re-hash.
			c.tage.UpdateLk(&c.cold(seq).tageLk, rec.PC, rec.Taken)
		}
	case isa.ClassJmp:
		c.ittage.Update(rec.PC, w.ghistBefore[slot], rec.Target)
	}
	if w.flags[slot]&fBrMispredict != 0 {
		c.stats.BranchFlushes++
		c.ghist.Restore(w.ghistAfter[slot])
		if c.fetchStallUntil > c.now+1 {
			c.fetchStallUntil = c.now + 1
		}
	}
}

// trainAddressPredictor updates the address predictor with the executed
// address. The paper always trains on execution — LSCD-blacklisted loads
// were never looked up, so they neither predict nor update and their
// entries age out.
func (c *Core) trainAddressPredictor(seq uint64, rec *trace.Rec) {
	w := &c.a.w
	slot := seq & windowMask
	if w.flags[slot]&fAddrLk == 0 {
		return
	}
	sizeLog2 := uint8(0)
	for b := int(rec.Bytes); b > 1; b >>= 1 {
		sizeLog2++
	}
	if c.ap.TrainSlot(int(slot), rec.PC, rec.Addr, sizeLog2, c.cold(seq).l1Way) {
		w.flags[slot] |= fAddrAlias
	}
}

// trainValuePredictor updates the value predictor for every destination
// it predicted with the executed values.
func (c *Core) trainValuePredictor(seq uint64, rec *trace.Rec) {
	slot := seq & windowMask
	if c.a.w.flags[slot]&fValueLk == 0 {
		return
	}
	nd := int(rec.NDst)
	if nd > trace.MaxDests {
		nd = trace.MaxDests
	}
	for j := 0; j < nd; j++ {
		c.vp.TrainSlot(int(slot), j, rec.Op, rec.DestValue(j))
	}
}

// validatePrediction confirms an installed value prediction when the
// instruction executes. A mismatch triggers a pipeline flush after the
// 1-cycle check penalty. When the predicted *address* was correct but the
// value was not — the signature of an older in-flight store — the load's
// PC enters the LSCD so future instances are not predicted.
func (c *Core) validatePrediction(seq uint64, rec *trace.Rec) {
	w := &c.a.w
	slot := seq & windowMask
	if w.flags[slot]&fValidated != 0 {
		return // a replayed instruction validates only once
	}
	w.flags[slot] |= fValidated
	if c.chooser != nil {
		c.trainChooser(seq, rec)
	}
	cd := c.cold(seq)
	if w.flags[slot]&fVpMade != 0 {
		c.pvtCount -= cd.vpNumDests
		if !vpCorrect(cd, rec) {
			if c.cfg.VP.SelectiveReplay {
				c.replayDependents(seq)
			} else {
				penalty := uint64(c.cfg.ValueCheckPenalty)
				c.scheduleFlush(flushReq{
					seq:       seq,
					refetchAt: seq + 1,
					resume:    c.now + penalty + 1,
					kind:      flushValue,
				})
			}
			c.maybeTrainLSCD(seq, rec)
		}
	} else if w.flags[slot]&fVpOracleDropped != 0 && cd.vpSource != 0 {
		// Oracle replay still observes the conflict for LSCD training.
		c.maybeTrainLSCD(seq, rec)
	}
}

// taint marks seq as a transitive dependent in the current replay pass.
func (c *Core) taint(seq uint64) {
	slot := seq & windowMask
	c.a.w.taintSeq[slot] = seq
	c.a.w.taintEp[slot] = c.replayEpoch
}

// tainted reports whether seq was marked in the current replay pass. The
// full seq is stored, so a committed producer whose slot was since reused
// never reads as tainted.
func (c *Core) tainted(seq uint64) bool {
	slot := seq & windowMask
	return c.a.w.taintEp[slot] == c.replayEpoch && c.a.w.taintSeq[slot] == seq
}

// replayDependents implements selective replay (the paper's Section 5.2.4
// future-work recovery): only the transitive register dependents of the
// mispredicted load re-execute. Tainted instructions that already issued
// return to the scheduler; they may re-issue once the check penalty has
// elapsed, now sourcing the load's architecturally correct value.
func (c *Core) replayDependents(loadSeq uint64) {
	c.stats.ValueReplays++
	c.eventWake = true // sleepers must recompute wakes against the new state
	w := &c.a.w
	notBefore := c.now + uint64(c.cfg.ValueCheckPenalty) + 1
	c.replayEpoch++
	c.taint(loadSeq)
	reissue := c.a.reissue[:0]
	for seq := loadSeq + 1; seq < c.fetchSeq; seq++ {
		if !c.live(seq) {
			continue
		}
		slot := seq & windowMask
		rec := c.rec(seq)
		dep := false
		for i := 0; i < int(rec.NSrc); i++ {
			if d := w.deps[slot][i]; d != 0 && c.tainted(d-1) {
				dep = true
				break
			}
		}
		if !dep {
			continue
		}
		c.taint(seq)
		if w.flags[slot]&fIssued == 0 {
			w.notBefore[slot] = notBefore
			continue
		}
		// Undo the issue; the instruction re-executes with correct inputs.
		w.flags[slot] &^= fIssued | fCompleted
		w.execDone[slot] = 0
		w.notBefore[slot] = notBefore
		if rec.IsStore() {
			c.insertPendingStore(seq)
		}
		reissue = append(reissue, seq)
	}
	c.a.reissue = reissue
	// Return the un-issued instructions to the scheduler (setting a slot's
	// iqBits bit re-enters it in age order). Their completion-wheel entries
	// are now stale and fall out at pop: fIssued is cleared, and a re-issue
	// stamps a new, later issueCycle.
	for _, s := range reissue {
		slot := s & windowMask
		c.a.iqBits[slot>>6] |= 1 << (slot & 63)
		c.iqCount++
	}
}

// insertPendingStore re-registers a store as unissued, keeping the slice
// sorted by sequence number.
func (c *Core) insertPendingStore(seq uint64) {
	ps := c.a.pendingStores
	for _, s := range ps {
		if s == seq {
			return
		}
	}
	ps = append(ps, seq)
	for i := len(ps) - 1; i > 0 && ps[i-1] > ps[i]; i-- {
		ps[i-1], ps[i] = ps[i], ps[i-1]
	}
	c.a.pendingStores = ps
}

// maybeTrainLSCD inserts the load into the LSCD when its address prediction
// was correct but the probed value was stale (in-flight store conflict).
func (c *Core) maybeTrainLSCD(seq uint64, rec *trace.Rec) {
	if c.lscd == nil {
		return
	}
	f := c.a.w.flags[seq&windowMask]
	lk := &c.cold(seq).addrLk
	if f&fAddrLk != 0 && lk.Confident && lk.Addr == rec.Addr && f&fProbeHit != 0 {
		c.lscd.Insert(rec.PC)
	}
}

// trainChooser updates the chooser with both components' outcomes when
// both produced a confident prediction for this load.
func (c *Core) trainChooser(seq uint64, rec *trace.Rec) {
	f := c.a.w.flags[seq&windowMask]
	cd := c.cold(seq)
	addrPredicted := f&fProbeDone != 0 && f&fProbeHit != 0
	valuePredicted := f&fValueConf != 0
	if !addrPredicted || !valuePredicted {
		return
	}
	nd := int(rec.NDst)
	addrCorrect := true
	for j := 0; j < nd; j++ {
		if cd.probeVals[j] != rec.DestValue(j) {
			addrCorrect = false
			break
		}
	}
	valueCorrect := true
	for j := 0; j < nd; j++ {
		if cd.valConf[j] && cd.valPred[j] != rec.DestValue(j) {
			valueCorrect = false
			break
		}
	}
	c.chooser.Train(rec.PC, addrCorrect, valueCorrect)
}

// readLoadValues reconstructs, from the committed-memory image, the value
// each destination register of inst would receive if the load read memory
// at addr right now. This is the DLVP probe's data path.
func (c *Core) readLoadValues(inst *isa.Inst, addr uint64, out *[trace.MaxDests]uint64) {
	switch inst.Op {
	case isa.LDR, isa.LDAR:
		out[0] = c.cmem.Read(addr, 1<<inst.Size)
	case isa.LDRS:
		size := 1 << inst.Size
		v := c.cmem.Read(addr, size)
		if size < 8 {
			shift := uint(64 - 8*size)
			v = uint64(int64(v<<shift) >> shift)
		}
		out[0] = v
	case isa.LDRPOST:
		out[0] = c.cmem.Read(addr, 8)
		out[1] = addr + uint64(inst.Imm) // the base update is computable
	case isa.LDP, isa.VLD:
		out[0] = c.cmem.Read(addr, 8)
		out[1] = c.cmem.Read(addr+8, 8)
	case isa.LDM:
		for k := uint8(0); k < inst.NReg && int(k) < trace.MaxDests; k++ {
			out[k] = c.cmem.Read(addr+uint64(k)*8, 8)
		}
	}
}
