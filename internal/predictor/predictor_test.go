package predictor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must produce same sequence")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestChanceAlwaysForOne(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 100; i++ {
		if !r.Chance(1) {
			t.Fatal("Chance(1) must always be true")
		}
	}
}

func TestChanceApproximatesProbability(t *testing.T) {
	r := NewRand(7)
	const n = 100_000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Chance(4) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("Chance(4) rate = %v, want ~0.25", got)
	}
}

func TestFPCSaturation(t *testing.T) {
	r := NewRand(3)
	f := NewFPC(r, 1, 1, 1) // deterministic: every bump advances
	c := uint8(0)
	for i := 0; i < 3; i++ {
		if f.Saturated(c) {
			t.Fatalf("saturated too early at %d", i)
		}
		c = f.Bump(c)
	}
	if !f.Saturated(c) {
		t.Error("must be saturated after 3 deterministic bumps")
	}
	if f.Bump(c) != c {
		t.Error("bump at saturation must be a no-op")
	}
	if f.Max() != 3 {
		t.Errorf("Max = %d", f.Max())
	}
}

func TestFPCExpectedObservations(t *testing.T) {
	r := NewRand(3)
	if got := PAPConfidenceFPC(r).ExpectedObservations(); got != 7 {
		t.Errorf("PAP FPC expected observations = %v, want 7 (~8 with allocation)", got)
	}
	v := VTAGEConfidenceFPC(r).ExpectedObservations()
	if v < 64 || v > 128 {
		t.Errorf("VTAGE FPC expected observations = %v, want within [64,128]", v)
	}
}

func TestFPCEmpiricalSaturationCount(t *testing.T) {
	// Average number of observations to saturate the PAP FPC should be near
	// its analytic expectation of 7.
	r := NewRand(11)
	f := PAPConfidenceFPC(r)
	const trials = 20_000
	total := 0
	for i := 0; i < trials; i++ {
		c, n := uint8(0), 0
		for !f.Saturated(c) {
			c = f.Bump(c)
			n++
		}
		total += n
	}
	mean := float64(total) / trials
	if math.Abs(mean-7) > 0.25 {
		t.Errorf("empirical saturation mean = %v, want ~7", mean)
	}
}

func TestFPCValidation(t *testing.T) {
	r := NewRand(0)
	for _, bad := range [][]uint32{{}, {3}, {0}, {1, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFPC(%v) should panic", bad)
				}
			}()
			NewFPC(r, bad...)
		}()
	}
}

func TestLoadPathHistory(t *testing.T) {
	h := NewLoadPathHistory(4)
	// PCs chosen so bit 2 alternates 1,0,1,1.
	h.Push(0x404) // bit2 = 1
	h.Push(0x408) // bit2 = 0
	h.Push(0x40c) // bit2 = 1
	h.Push(0x414) // bit2 = 1
	if h.Value() != 0b1011 {
		t.Errorf("history = %04b, want 1011", h.Value())
	}
	// Overflow: oldest bit drops.
	h.Push(0x400) // bit2 = 0
	if h.Value() != 0b0110 {
		t.Errorf("history after shift = %04b, want 0110", h.Value())
	}
	snap := h.Snapshot()
	h.Push(0x404)
	h.Restore(snap)
	if h.Value() != 0b0110 {
		t.Error("restore did not rewind")
	}
}

func TestLoadPathHistoryBounds(t *testing.T) {
	for _, bad := range []uint8{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bits=%d should panic", bad)
				}
			}()
			NewLoadPathHistory(bad)
		}()
	}
	h := NewLoadPathHistory(64)
	h.Push(0x404)
	if h.Value() != 1 {
		t.Error("64-bit history push failed")
	}
}

func TestGlobalHistory(t *testing.T) {
	var g GlobalHistory
	g.Push(true)
	g.Push(false)
	g.Push(true)
	if g.Value() != 0b101 {
		t.Errorf("ghist = %b, want 101", g.Value())
	}
	s := g.Snapshot()
	g.Push(true)
	g.Restore(s)
	if g.Value() != 0b101 {
		t.Error("restore failed")
	}
}

func TestFold(t *testing.T) {
	if Fold(0, 16, 10) != 0 {
		t.Error("fold of zero must be zero")
	}
	if Fold(0xffff, 16, 8) != 0 {
		t.Error("0xffff folded into 8 bits must cancel to 0")
	}
	if got := Fold(0xff00, 16, 8); got != 0xff {
		t.Errorf("Fold(0xff00,16,8) = %#x, want 0xff", got)
	}
	if Fold(123, 0, 8) != 0 || Fold(123, 8, 0) != 0 {
		t.Error("degenerate folds must be zero")
	}
}

// Property: Fold output always fits in outBits.
func TestFoldRange(t *testing.T) {
	f := func(h uint64, hb, ob uint8) bool {
		hb = 1 + hb%64
		ob = 1 + ob%32
		return Fold(h, hb, ob) < 1<<ob
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Fold depends only on the low histBits of h.
func TestFoldMasksHistory(t *testing.T) {
	f := func(h uint64, hb, ob uint8) bool {
		hb = 1 + hb%63
		ob = 1 + ob%32
		masked := h & ((1 << hb) - 1)
		return Fold(h, hb, ob) == Fold(masked, hb, ob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixPCSpreads(t *testing.T) {
	// Adjacent instruction PCs must land in different low-bit buckets
	// reasonably often.
	buckets := make(map[uint64]int)
	for pc := uint64(0x400000); pc < 0x400000+1024*4; pc += 4 {
		buckets[MixPC(pc)&1023]++
	}
	if len(buckets) < 600 {
		t.Errorf("MixPC used only %d of 1024 buckets for sequential PCs", len(buckets))
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.Record(true, true)
	s.Record(true, false)
	s.Record(false, false)
	s.Record(true, true)
	if s.Coverage() != 75 {
		t.Errorf("coverage = %v, want 75", s.Coverage())
	}
	if math.Abs(s.Accuracy()-200.0/3) > 1e-9 {
		t.Errorf("accuracy = %v, want 66.67", s.Accuracy())
	}
	if s.Mispredicted() != 1 {
		t.Errorf("mispredicted = %d", s.Mispredicted())
	}
	var z Stats
	if z.Coverage() != 0 || z.Accuracy() != 0 {
		t.Error("zero stats must not divide by zero")
	}
	z.Add(s)
	if z.Eligible != 4 || z.Predicted != 3 || z.Correct != 2 {
		t.Errorf("Add result = %+v", z)
	}
}

func TestLSCD(t *testing.T) {
	l := NewLSCD(4)
	if l.Contains(0x100) {
		t.Error("empty LSCD must not contain anything")
	}
	l.Insert(0x100)
	l.Insert(0x200)
	if !l.Contains(0x100) || !l.Contains(0x200) {
		t.Error("inserted PCs must be found")
	}
	// Duplicate insert must not consume capacity.
	l.Insert(0x100)
	l.Insert(0x300)
	l.Insert(0x400)
	if l.Len() != 4 {
		t.Errorf("len = %d, want 4", l.Len())
	}
	// FIFO replacement: the fifth distinct PC evicts the oldest (0x100).
	l.Insert(0x500)
	if l.Contains(0x100) {
		t.Error("oldest entry must be evicted")
	}
	if !l.Contains(0x500) || !l.Contains(0x200) {
		t.Error("newer entries must survive")
	}
	if l.Filtered == 0 || l.Inserts == 0 {
		t.Error("stats not counted")
	}
}

func TestLSCDDefaultSize(t *testing.T) {
	l := NewLSCD(0)
	for pc := uint64(1); pc <= 8; pc++ {
		l.Insert(pc * 16)
	}
	if l.Len() != 4 {
		t.Errorf("default size = %d, want 4 (the paper's LSCD)", l.Len())
	}
}

func TestSideString(t *testing.T) {
	if SideAddress.String() != "address" || SideValue.String() != "value" || SideNone.String() != "none" {
		t.Error("Side strings wrong")
	}
}

func TestSlotContextsWidenKeepsContexts(t *testing.T) {
	s := NewSlotContexts[uint64](4, 1)
	for slot := 0; slot < 4; slot++ {
		*s.At(slot, 0) = uint64(slot + 1)
	}
	*s.At(2, 3) = 99 // widens the stride past its initial 1
	for slot := 0; slot < 4; slot++ {
		if got := *s.At(slot, 0); got != uint64(slot+1) {
			t.Errorf("slot %d dest 0 = %d after widening, want %d", slot, got, slot+1)
		}
	}
	if got := *s.At(2, 3); got != 99 {
		t.Errorf("slot 2 dest 3 = %d, want 99", got)
	}
}
