package config

import "testing"

func TestBaselineMatchesTable4(t *testing.T) {
	c := Baseline()
	if c.FetchWidth != 4 || c.IssueWidth != 8 || c.LSLanes != 2 {
		t.Errorf("widths = %d/%d/%d", c.FetchWidth, c.IssueWidth, c.LSLanes)
	}
	if c.ROBSize != 224 || c.IQSize != 97 || c.LDQSize != 72 || c.STQSize != 56 {
		t.Errorf("queues = %d/%d/%d/%d (Table 4: 224/97/72/56)",
			c.ROBSize, c.IQSize, c.LDQSize, c.STQSize)
	}
	if c.PhysRegs != 348 {
		t.Errorf("phys regs = %d, Table 4: 348", c.PhysRegs)
	}
	if c.VP.Scheme != VPNone {
		t.Error("baseline must not value-predict")
	}
	if c.Mem.L1D.SizeBytes != 64<<10 || c.Mem.L1D.Ways != 4 || c.Mem.L1D.Latency != 2 {
		t.Errorf("L1D = %+v", c.Mem.L1D)
	}
	if c.Mem.MemLatency != 200 {
		t.Errorf("memory latency = %d", c.Mem.MemLatency)
	}
	if c.PVTEntries != 32 || c.PAQEntries != 32 {
		t.Errorf("PVT/PAQ = %d/%d", c.PVTEntries, c.PAQEntries)
	}
	if c.VP.LSCDEntries != 4 {
		t.Errorf("LSCD = %d, paper: 4", c.VP.LSCDEntries)
	}
	if c.VP.MaxPredictionsPerCycle != 2 {
		t.Errorf("predictions/cycle = %d, paper: 2", c.VP.MaxPredictionsPerCycle)
	}
}

func TestSchemePresets(t *testing.T) {
	cases := map[VPScheme]Core{
		VPDLVP:       DLVP(),
		VPCAP:        CAPDLVP(),
		VPVTAGE:      VTAGE(),
		VPTournament: Tournament(),
		VPDVTAGE:     DVTAGE(),
	}
	for want, c := range cases {
		if c.VP.Scheme != want {
			t.Errorf("preset scheme = %v, want %v", c.VP.Scheme, want)
		}
		// Presets must not disturb the Table 4 substrate.
		if c.ROBSize != 224 {
			t.Errorf("%v preset changed ROB", want)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	names := map[VPScheme]string{
		VPNone: "baseline", VPDLVP: "dlvp", VPCAP: "cap",
		VPVTAGE: "vtage", VPTournament: "tournament", VPDVTAGE: "dvtage",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if got := VPScheme(200).String(); got != "baseline" {
		t.Errorf("unknown scheme String() = %q, want baseline", got)
	}
	// Every listed name resolves through ByScheme to a preset that prints
	// the same name back.
	for _, name := range SchemeNames() {
		c, ok := ByScheme(name)
		if !ok {
			t.Errorf("ByScheme(%q) not found", name)
			continue
		}
		if got := c.VP.Scheme.String(); got != name {
			t.Errorf("ByScheme(%q).VP.Scheme.String() = %q", name, got)
		}
	}
	if len(SchemeNames()) != len(names) {
		t.Errorf("SchemeNames() = %v, want %d names", SchemeNames(), len(names))
	}
	if _, ok := ByScheme("warp"); ok {
		t.Error("ByScheme accepted an unknown name")
	}
}

func TestSchemeComponents(t *testing.T) {
	cases := []struct {
		scheme                  VPScheme
		address, value, chooser bool
	}{
		{VPNone, false, false, false},
		{VPDLVP, true, false, false},
		{VPCAP, true, false, false},
		{VPVTAGE, false, true, false},
		{VPTournament, true, true, true},
		{VPDVTAGE, false, true, false},
	}
	for _, tc := range cases {
		c := Baseline().WithScheme(tc.scheme).VP.Components(8)
		if c.Name != tc.scheme.String() {
			t.Errorf("%v: component name %q", tc.scheme, c.Name)
		}
		if (c.Address != nil) != tc.address || (c.Value != nil) != tc.value || (c.Chooser != nil) != tc.chooser {
			t.Errorf("%v: components address=%v value=%v chooser=%v, want %v/%v/%v", tc.scheme,
				c.Address != nil, c.Value != nil, c.Chooser != nil, tc.address, tc.value, tc.chooser)
		}
	}
	// The energy meter names the tables; tournament meters the APT first.
	c := Tournament().VP.Components(8)
	if c.Address.Name() != "APT" || c.Value.Name() != "VTAGE" {
		t.Errorf("tournament tables = %s, %s", c.Address.Name(), c.Value.Name())
	}
}

func TestPAPBudgetIs8KBClass(t *testing.T) {
	// The paper's abstract: "a modest 8KB prediction table".
	c := Baseline()
	bits := c.VP.PAP.Entries * 69 // ARMv8 entry with way field
	kb := bits / 8 / 1024
	if kb < 6 || kb > 10 {
		t.Errorf("APT budget = %dKB, want the paper's ~8KB class", kb)
	}
}

func TestVTAGEDefaultsMatchPaper(t *testing.T) {
	c := VTAGE()
	v := c.VP.VTAGE
	if !v.LoadsOnly {
		t.Error("paper's final VTAGE config is loads-only")
	}
	if v.TableEntries != 256 || len(v.Histories) != 3 {
		t.Errorf("VTAGE geometry = %d entries x %d tables", v.TableEntries, len(v.Histories))
	}
}
