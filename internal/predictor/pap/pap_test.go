package pap

import (
	"testing"
	"testing/quick"
)

// trainUntilConfident drives one (pc,addr) association until the predictor
// reports confidence, returning how many observations it took.
func trainUntilConfident(t *testing.T, p *Predictor, pc, addr uint64) int {
	t.Helper()
	for i := 1; i <= 200; i++ {
		lk := p.Lookup(pc)
		p.Train(lk, addr, 3, 0)
		if p.Lookup(pc).Confident {
			return i
		}
	}
	t.Fatalf("never became confident for pc=%#x", pc)
	return 0
}

func TestConfidenceAfterFewObservations(t *testing.T) {
	p := New(DefaultConfig())
	n := trainUntilConfident(t, p, 0x400100, 0x10000)
	// The paper: an address needs to be observed only ~8 times (2-bit FPC,
	// {1,1/2,1/4} => expected 7 bumps after allocation). Allow slack for the
	// probabilistic counter.
	if n < 3 || n > 40 {
		t.Errorf("observations to confidence = %d, want around 8", n)
	}
	lk := p.Lookup(0x400100)
	if !lk.Hit || !lk.Confident || lk.Addr != 0x10000 {
		t.Errorf("lookup after training = %+v", lk)
	}
}

func TestNoPredictionWhileTraining(t *testing.T) {
	p := New(DefaultConfig())
	lk := p.Lookup(0x400100)
	if lk.Hit || lk.Confident {
		t.Error("empty table must not hit")
	}
	p.Train(lk, 0x10000, 3, 0)
	lk = p.Lookup(0x400100)
	if !lk.Hit {
		t.Fatal("allocated entry must hit")
	}
	if lk.Confident {
		t.Error("one observation must not be confident")
	}
}

func TestMismatchResetsConfidence(t *testing.T) {
	p := New(DefaultConfig())
	trainUntilConfident(t, p, 0x400100, 0x10000)
	lk := p.Lookup(0x400100)
	p.Train(lk, 0x20000, 3, 0) // address changed
	lk = p.Lookup(0x400100)
	if lk.Confident {
		t.Error("confidence must reset after mismatch")
	}
	if lk.Addr != 0x20000 {
		t.Errorf("entry must be reallocated with the new address, got %#x", lk.Addr)
	}
	if p.ConfResets == 0 {
		t.Error("ConfResets not counted")
	}
}

func TestPathHistoryDisambiguates(t *testing.T) {
	// The same static load reached via two different load paths should map
	// to two different APT entries, each able to hold its own address —
	// PAP's core advantage over PC-only indexing.
	cfg := DefaultConfig()
	p := New(cfg)
	const loadPC = 0x400200

	// Path A: preceded by loads at PCs with bit2 pattern 1,1,1,...
	pathA := func() {
		p.RestoreHistory(0)
		for i := 0; i < 16; i++ {
			p.PushLoad(0x404)
		}
	}
	// Path B: bit2 pattern 0,0,0,...
	pathB := func() {
		p.RestoreHistory(0)
		for i := 0; i < 16; i++ {
			p.PushLoad(0x408)
		}
	}

	for i := 0; i < 60; i++ {
		pathA()
		lk := p.Lookup(loadPC)
		p.Train(lk, 0xA000, 3, 0)
		pathB()
		lk = p.Lookup(loadPC)
		p.Train(lk, 0xB000, 3, 0)
	}
	pathA()
	lkA := p.Lookup(loadPC)
	pathB()
	lkB := p.Lookup(loadPC)
	if !lkA.Confident || lkA.Addr != 0xA000 {
		t.Errorf("path A prediction = %+v, want confident 0xA000", lkA)
	}
	if !lkB.Confident || lkB.Addr != 0xB000 {
		t.Errorf("path B prediction = %+v, want confident 0xB000", lkB)
	}
}

func TestPolicy2VictimSurvives(t *testing.T) {
	// A confident entry must survive a single colliding allocation attempt
	// (Policy-2), but repeated pressure eventually evicts it.
	cfg := DefaultConfig()
	cfg.Entries = 1 // force every key to collide
	cfg.HistBits = 1
	p := New(cfg)
	trainUntilConfident(t, p, 0x400100, 0xAAAA)

	// One miss from a different (colliding) load: must only decay.
	lk := p.Lookup(0x500000)
	if lk.Hit {
		t.Fatal("different tag should miss")
	}
	p.Train(lk, 0xBBBB, 3, 0)
	if got := p.Lookup(0x400100); !got.Hit || got.Addr != 0xAAAA {
		t.Fatalf("victim evicted by a single miss; Policy-2 must decay instead")
	}

	// Sustained pressure: decrement conf to zero then allocate.
	for i := 0; i < 10; i++ {
		lk = p.Lookup(0x500000)
		p.Train(lk, 0xBBBB, 3, 0)
	}
	if got := p.Lookup(0x500000); !got.Hit {
		t.Error("sustained pressure must eventually allocate")
	}
}

func TestPolicy1AlwaysReplaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 1
	cfg.HistBits = 1
	cfg.AllocPolicy1 = true
	p := New(cfg)
	trainUntilConfident(t, p, 0x400100, 0xAAAA)
	lk := p.Lookup(0x500000)
	p.Train(lk, 0xBBBB, 3, 0)
	if got := p.Lookup(0x500000); !got.Hit || got.Addr != 0xBBBB {
		t.Error("Policy-1 must replace immediately")
	}
}

func TestWayPrediction(t *testing.T) {
	p := New(DefaultConfig())
	lk := p.Lookup(0x400100)
	p.Train(lk, 0x10000, 3, 2)
	lk = p.Lookup(0x400100)
	if lk.Way != 2 {
		t.Errorf("way = %d, want 2", lk.Way)
	}
	// Way updates on a hit with matching address.
	p.Train(lk, 0x10000, 3, 3)
	if got := p.Lookup(0x400100).Way; got != 3 {
		t.Errorf("way after retrain = %d, want 3", got)
	}
	// Disabled way prediction reports -1.
	cfg := DefaultConfig()
	cfg.WayPredict = false
	p2 := New(cfg)
	lk2 := p2.Lookup(0x400100)
	p2.Train(lk2, 0x10000, 3, 2)
	if got := p2.Lookup(0x400100).Way; got != -1 {
		t.Errorf("disabled way prediction = %d, want -1", got)
	}
}

func TestSizeField(t *testing.T) {
	p := New(DefaultConfig())
	lk := p.Lookup(0x400100)
	p.Train(lk, 0x10000, 2, 0)
	if got := p.Lookup(0x400100).SizeLog2; got != 2 {
		t.Errorf("size = %d, want 2", got)
	}
}

func TestEntryAndStorageBits(t *testing.T) {
	p := New(DefaultConfig())
	// Table 1 (ARMv8): 14 tag + 49 addr + 2 conf + 2 size = 67, +2 way.
	if got := p.EntryBits(); got != 69 {
		t.Errorf("entry bits = %d, want 69 (67 + 2-bit way)", got)
	}
	if got := p.StorageBits(); got != 1024*69 {
		t.Errorf("storage bits = %d", got)
	}
	v7 := DefaultConfig()
	v7.AddrBits = 32
	v7.WayPredict = false
	if got := New(v7).EntryBits(); got != 50 {
		t.Errorf("ARMv7 entry bits = %d, want 50", got)
	}
}

func TestHistorySnapshotRoundTrip(t *testing.T) {
	p := New(DefaultConfig())
	p.PushLoad(0x404)
	p.PushLoad(0x408)
	s := p.HistorySnapshot()
	p.PushLoad(0x404)
	p.PushLoad(0x404)
	p.RestoreHistory(s)
	if p.HistorySnapshot() != s {
		t.Error("restore must rewind history")
	}
}

func TestLookupWithReconstructsContext(t *testing.T) {
	p := New(DefaultConfig())
	p.PushLoad(0x404)
	hist := p.HistorySnapshot()
	lk1 := p.Lookup(0x400100)
	p.PushLoad(0x408) // history moves on
	lk2 := p.LookupWith(0x400100, hist)
	if lk1.Index != lk2.Index || lk1.Tag != lk2.Tag {
		t.Error("LookupWith must reproduce the original index/tag")
	}
}

func TestStaleTrainTreatedAsMiss(t *testing.T) {
	// If the entry is reallocated between prediction and training, Train
	// must not corrupt the new occupant when the victim is confident.
	cfg := DefaultConfig()
	cfg.Entries = 1
	cfg.HistBits = 1
	p := New(cfg)
	lkOld := p.Lookup(0x400100)
	p.Train(lkOld, 0xAAAA, 3, 0) // allocate A
	// Different tag allocates over it (conf 0 victim).
	lkB := p.Lookup(0x500000)
	p.Train(lkB, 0xBBBB, 3, 0)
	// Now train with the stale lookup from A.
	p.Train(lkOld, 0xAAAA, 3, 0)
	// B had conf 0, so A is allowed to reallocate — but never to corrupt
	// B's entry in place while B's tag is present and confident.
	got := p.Lookup(0x400100)
	if got.Hit && got.Addr != 0xAAAA {
		t.Errorf("stale train corrupted entry: %+v", got)
	}
}

func TestPowerOfTwoValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two entries")
		}
	}()
	cfg := DefaultConfig()
	cfg.Entries = 1000
	New(cfg)
}

// Property: Lookup never reports Confident without Hit, and index is always
// within the table.
func TestLookupInvariants(t *testing.T) {
	p := New(DefaultConfig())
	f := func(pc, addr, histSeed uint64) bool {
		p.RestoreHistory(histSeed)
		lk := p.Lookup(pc)
		if lk.Confident && !lk.Hit {
			return false
		}
		if int(lk.Index) >= p.Config().Entries {
			return false
		}
		p.Train(lk, addr, 3, 0)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
