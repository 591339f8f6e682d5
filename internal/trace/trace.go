// Package trace defines the dynamic instruction record streamed from the
// functional emulator into the timing model and the profiling tools, plus
// the streaming profilers behind the paper's Figure 1 (load-store conflict
// characterisation) and Figure 2 (address/value repeatability).
package trace

import "dlvp/internal/isa"

// MaxDests is the largest number of destination registers a single record can
// carry (ARM LDM writes up to 16 general-purpose registers).
const MaxDests = isa.MaxLDMRegs

// MaxSrcs is the largest number of source registers (STP: base + index + two
// data registers).
const MaxSrcs = 4

// Rec is one dynamic instruction as observed by the functional emulator.
// It carries everything the timing model and the predictors need: register
// dataflow, the effective address and loaded/stored values for memory
// operations, and the actual control-flow outcome for branches.
type Rec struct {
	Seq  uint64 // dynamic instruction number, starting at 0
	PC   uint64
	Op   isa.Op
	Next uint64 // address of the next instruction actually executed

	NDst uint8
	NSrc uint8
	Dst  [MaxDests]isa.Reg
	Src  [MaxSrcs]isa.Reg

	// Memory operation fields (valid when Op.IsMem()).
	Addr  uint64 // effective (virtual) address
	Bytes uint8  // total bytes accessed
	// Vals holds, for loads, the value written into each destination register
	// (Vals[i] corresponds to Dst[i]); for LDRPOST, Vals[1] is the updated
	// base. For stores, Vals[0..1] hold the stored data words (16 bytes max).
	Vals [MaxDests]uint64

	// Branch fields (valid when Op.IsBranch()).
	Taken  bool
	Target uint64 // actual target when taken
}

// IsLoad reports whether the record is a load.
func (r *Rec) IsLoad() bool { return r.Op.IsLoad() }

// IsStore reports whether the record is a store.
func (r *Rec) IsStore() bool { return r.Op.IsStore() }

// Value returns the first loaded value (the canonical "load value" used by
// single-value predictors).
func (r *Rec) Value() uint64 { return r.Vals[0] }

// DestValue returns the value written into destination register Dst[i].
// For most instructions this is Vals[i]; STRPOST is the exception — its
// Vals[0] holds the stored data, so the updated base (its only destination)
// lives in Vals[1].
func (r *Rec) DestValue(i int) uint64 {
	if r.Op == isa.STRPOST {
		return r.Vals[1]
	}
	return r.Vals[i]
}

// Reader streams dynamic records. Fill copies the next record into rec and
// reports whether a record was produced; once it returns false the stream is
// exhausted (program halted or budget reached).
type Reader interface {
	Next(rec *Rec) bool
}

// RandomAccess is implemented by readers that can serve any record by
// position without re-streaming. A simulator replaying such a trace can
// skip its staging ring and serve records zero-copy — including refetches
// after a squash, which a pure stream cannot rewind for.
type RandomAccess interface {
	RecAt(pos uint64) *Rec
	NumRecs() uint64
}

// SliceReader adapts a pre-recorded []Rec into a Reader. The trace cache
// serves every captured stream through one, and tests build them directly.
type SliceReader struct {
	Recs []Rec
	pos  int
}

// Next implements Reader.
func (s *SliceReader) Next(rec *Rec) bool {
	if s.pos >= len(s.Recs) {
		return false
	}
	*rec = s.Recs[s.pos]
	s.pos++
	return true
}

// RecAt implements RandomAccess. The caller must not mutate the record.
func (s *SliceReader) RecAt(pos uint64) *Rec { return &s.Recs[pos] }

// NumRecs implements RandomAccess.
func (s *SliceReader) NumRecs() uint64 { return uint64(len(s.Recs)) }

// Collect drains up to max records from r (all records if max <= 0).
func Collect(r Reader, max int) []Rec {
	var out []Rec
	var rec Rec
	for r.Next(&rec) {
		out = append(out, rec)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}
