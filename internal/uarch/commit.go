package uarch

import (
	"dlvp/internal/isa"
	"dlvp/internal/predictor"
	"dlvp/internal/trace"
)

// commitStage retires up to CommitWidth completed instructions per cycle in
// program order. Stores write the committed-memory image and the data cache
// here (through the store buffer); value-prediction coverage and accuracy
// are accounted on the committed path only, matching how the paper counts
// dynamic loads.
func (c *Core) commitStage() {
	w := &c.a.w
	for n := 0; n < c.cfg.CommitWidth; n++ {
		if c.headSeq >= c.fetchSeq {
			return
		}
		seq := c.headSeq
		slot := seq & windowMask
		f := w.flags[slot]
		if f&fValid == 0 {
			return
		}
		if f&fRenamed == 0 || f&fCompleted == 0 || w.execDone[slot] > c.now {
			return
		}
		rec := c.rec(seq)

		c.captureStageTrace(seq)
		c.stats.Instructions++
		switch {
		case rec.IsLoad():
			c.stats.Loads++
			c.a.ldqIdx.popFront()
		case rec.IsStore():
			c.stats.Stores++
			c.a.stqIdx.popFront()
			c.commitStore(rec)
		}
		c.accountPrediction(seq)

		// Architectural history state advances with the committed stream.
		c.committedGhist = w.ghistAfter[slot]
		c.committedLphist = w.lphistAfter[slot]
		if f&fHasRasAfter != 0 {
			c.rasBase = c.cold(seq).rasAfter
		}

		c.freeRegs += int(rec.NDst)
		c.robCount--
		if rec.IsLoad() {
			c.ldqCount--
		}
		if rec.IsStore() {
			c.stqCount--
		}
		w.flags[slot] &^= fValid
		c.headSeq++
		// Sample-window countdown, after this instruction's stats landed
		// so a boundary snapshot includes the just-committed instruction.
		// One compare per commit when no window is armed.
		if c.wmArmed && !c.mdDone {
			c.wmTick()
		}
		// Flight-recorder tick, after this instruction's stats landed so a
		// boundary snapshot includes it. One nil check when sampling is off.
		if c.tl != nil {
			c.tlTick()
		}
	}
}

// commitStore applies a committing store to the committed-memory image (the
// state DLVP probes observe) and to the cache hierarchy.
func (c *Core) commitStore(rec *trace.Rec) {
	switch rec.Op {
	case isa.STP:
		c.cmem.Write(rec.Addr, rec.Vals[0], 8)
		c.cmem.Write(rec.Addr+8, rec.Vals[1], 8)
	default: // STR, STRPOST, STLR
		c.cmem.Write(rec.Addr, rec.Vals[0], int(rec.Bytes))
	}
	c.hier.Store(c.now, rec.Addr)
}

// accountPrediction tallies coverage/accuracy at commit.
func (c *Core) accountPrediction(seq uint64) {
	rec := c.rec(seq)
	if !c.eligibleForStats(rec.Op, int(rec.NDst)) {
		return
	}
	f := c.a.w.flags[seq&windowMask]
	cd := c.cold(seq)
	predicted := f&(fVpMade|fVpOracleDropped) != 0
	correct := f&fVpMade != 0 && vpCorrect(cd, rec)
	c.stats.VP.Record(predicted, correct)
	// Site attribution rides the same outcome so per-site sums reconcile
	// with the aggregate exactly. One nil check when profiling is off.
	if c.sp != nil {
		c.spRecord(seq, predicted, correct)
	}
	if f&fVpMade != 0 {
		switch cd.vpSource {
		case predictor.SideAddress:
			c.stats.TournamentDLVP++
		case predictor.SideValue:
			c.stats.TournamentVTAGE++
		}
	}
}

// vpCorrect reports whether every destination value installed in the PVT
// for rec matches the executed one.
func vpCorrect(cd *coldState, rec *trace.Rec) bool {
	for j := 0; j < int(rec.NDst); j++ {
		if cd.vpPerDest[j] && cd.vpVals[j] != rec.DestValue(j) {
			return false
		}
	}
	return true
}

// eligibleForStats defines the coverage denominator: dynamic loads, except
// under a lone all-instructions value predictor, where every
// value-producing instruction counts.
func (c *Core) eligibleForStats(op isa.Op, nDests int) bool {
	if c.allInstrStats {
		return predictor.Targetable(op, nDests, false)
	}
	return op.IsLoad()
}
