package tournament

import (
	"testing"

	"dlvp/internal/predictor"
)

func TestSingleConfidentSideWins(t *testing.T) {
	c := New(DefaultConfig())
	if got := c.Choose(0x400100, true, false); got != predictor.SideAddress {
		t.Errorf("only DLVP ready: %v", got)
	}
	if got := c.Choose(0x400100, false, true); got != predictor.SideValue {
		t.Errorf("only VTAGE ready: %v", got)
	}
	if got := c.Choose(0x400100, false, false); got != predictor.SideNone {
		t.Errorf("neither ready: %v", got)
	}
}

func TestChooserLearnsBetterSide(t *testing.T) {
	c := New(DefaultConfig())
	const pc = 0x400100
	// VTAGE is consistently right, DLVP wrong: counter must migrate.
	for i := 0; i < 10; i++ {
		c.Train(pc, false, true)
	}
	if got := c.Choose(pc, true, true); got != predictor.SideValue {
		t.Errorf("after VTAGE streak: %v, want vtage", got)
	}
	// Reverse.
	for i := 0; i < 10; i++ {
		c.Train(pc, true, false)
	}
	if got := c.Choose(pc, true, true); got != predictor.SideAddress {
		t.Errorf("after DLVP streak: %v, want dlvp", got)
	}
}

func TestAgreementDoesNotTrain(t *testing.T) {
	c := New(DefaultConfig())
	const pc = 0x400200
	before := c.Choose(pc, true, true)
	for i := 0; i < 50; i++ {
		c.Train(pc, true, true)
		c.Train(pc, false, false)
	}
	if got := c.Choose(pc, true, true); got != before {
		t.Error("agreement must not move the counter")
	}
}

func TestBreakdownCounters(t *testing.T) {
	c := New(DefaultConfig())
	c.Choose(0x1000, true, false)
	c.Choose(0x1000, false, true)
	c.Choose(0x1000, true, true)
	if c.ChoseDLVP+c.ChoseVTAGE != 3 {
		t.Errorf("breakdown counters = %d + %d, want 3 total", c.ChoseDLVP, c.ChoseVTAGE)
	}
}

func TestStorageAndValidation(t *testing.T) {
	c := New(DefaultConfig())
	if c.StorageBits() != 2048 {
		t.Errorf("storage = %d", c.StorageBits())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Entries: 7})
}
