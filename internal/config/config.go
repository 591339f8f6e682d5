// Package config assembles the simulated core's configuration. The default
// corresponds to the paper's Table 4 baseline: a Skylake-class out-of-order
// core (4-wide in-order front end, 8-wide OoO engine with 2 load-store
// lanes, 224/97/72/56 ROB/IQ/LDQ/STQ, 348 physical registers, 13-cycle
// fetch-to-execute), TAGE/ITTAGE branch prediction, a 21264-style MDP, and
// the three-level cache hierarchy with stride prefetchers.
package config

import (
	"dlvp/internal/branch"
	"dlvp/internal/mdp"
	"dlvp/internal/mem"
	"dlvp/internal/predictor"
	"dlvp/internal/predictor/cap"
	"dlvp/internal/predictor/dvtage"
	"dlvp/internal/predictor/pap"
	"dlvp/internal/predictor/tournament"
	"dlvp/internal/predictor/vtage"
)

// VPScheme selects the value-prediction scheme attached to the core.
type VPScheme uint8

// Value-prediction schemes evaluated in the paper.
const (
	// VPNone is the baseline core without value prediction.
	VPNone VPScheme = iota
	// VPDLVP is the paper's contribution: PAP address prediction + cache
	// probing (Decoupled Load Value Prediction).
	VPDLVP
	// VPCAP is DLVP with the CAP address predictor in place of PAP.
	VPCAP
	// VPVTAGE is conventional value prediction with the VTAGE predictor.
	VPVTAGE
	// VPTournament combines DLVP and VTAGE under a PC-indexed chooser.
	VPTournament
	// VPDVTAGE is conventional value prediction with the differential
	// D-VTAGE predictor (related work, Section 2.1).
	VPDVTAGE
)

// schemeRow is one scheme: its wire name and component constructors (nil:
// no such component), each given the core's window slot count.
type schemeRow struct {
	name    string
	address func(VPConfig, int) predictor.AddressPredictor
	value   func(VPConfig, int) predictor.ValuePredictor
	chooser func(VPConfig) predictor.Chooser
}

// schemes is the scheme table, indexed by VPScheme. The wire names, the
// presets and the core's components all read it; adding a predictor is
// its package plus one row here.
var schemes = [...]schemeRow{
	VPNone:       {name: "baseline"},
	VPDLVP:       {name: "dlvp", address: newPAP},
	VPCAP:        {name: "cap", address: newCAP},
	VPVTAGE:      {name: "vtage", value: newVTAGE},
	VPTournament: {name: "tournament", address: newPAP, value: newVTAGE, chooser: newChooser},
	VPDVTAGE:     {name: "dvtage", value: newDVTAGE},
}

func newPAP(vp VPConfig, n int) predictor.AddressPredictor  { return pap.NewWindowed(vp.PAP, n) }
func newCAP(vp VPConfig, n int) predictor.AddressPredictor  { return cap.NewWindowed(vp.CAP, n) }
func newVTAGE(vp VPConfig, n int) predictor.ValuePredictor  { return vtage.NewWindowed(vp.VTAGE, n) }
func newDVTAGE(vp VPConfig, n int) predictor.ValuePredictor { return dvtage.NewWindowed(vp.DVTAGE, n) }
func newChooser(vp VPConfig) predictor.Chooser              { return tournament.New(vp.Chooser) }

// row returns s's scheme-table row; an unknown scheme reads as the baseline.
func (s VPScheme) row() schemeRow {
	if int(s) < len(schemes) {
		return schemes[s]
	}
	return schemes[VPNone]
}

func (s VPScheme) String() string { return s.row().name }

// Components is the prediction machinery a scheme attaches to the core.
type Components struct {
	Name    string                     // the scheme's wire name
	Address predictor.AddressPredictor // nil: no address prediction
	Value   predictor.ValuePredictor   // nil: no value prediction
	Chooser predictor.Chooser          // nil: at most one component predicts
}

// Components builds the components of the configured scheme for a core
// with slots instruction-window slots (each component keeps its training
// context per slot).
func (vp VPConfig) Components(slots int) Components {
	row := vp.Scheme.row()
	c := Components{Name: row.name}
	if row.address != nil {
		c.Address = row.address(vp, slots)
	}
	if row.value != nil {
		c.Value = row.value(vp, slots)
	}
	if row.chooser != nil {
		c.Chooser = row.chooser(vp)
	}
	return c
}

// VPConfig bundles the scheme choice with per-predictor parameters and the
// DLVP-specific knobs.
type VPConfig struct {
	Scheme VPScheme

	PAP     pap.Config
	CAP     cap.Config
	VTAGE   vtage.Config
	DVTAGE  dvtage.Config
	Chooser tournament.Config

	// LSCDEntries sizes the Load-Store Conflict Detector (0 disables it;
	// the paper uses 4).
	LSCDEntries int
	// ProbePrefetch issues a prefetch when a DLVP probe misses the L1D
	// (the paper's Figure 5 ablation).
	ProbePrefetch bool
	// OracleReplay models the paper's Figure 10 oracle: a would-be value
	// misprediction is converted into a no-prediction instead of a flush.
	OracleReplay bool
	// SelectiveReplay implements the recovery mechanism the paper leaves as
	// future work (Section 5.2.4): on a value misprediction, only the
	// transitive dependents of the mispredicted load re-execute; everything
	// else stays put. Consumers of predicted values cannot leave the
	// instruction queue early under this scheme — re-issue is modelled by
	// returning squashed-by-dependence instructions to the scheduler.
	// Mutually exclusive with OracleReplay (oracle wins if both set).
	SelectiveReplay bool
	// MaxPredictionsPerCycle bounds value predictions made per cycle
	// (the paper assumes up to two).
	MaxPredictionsPerCycle int
}

// Core is the full simulated-core configuration.
type Core struct {
	// Front end.
	FetchWidth   int // instructions fetched per cycle (Table 4: 4)
	FrontLatency int // cycles from fetch to rename-ready (fetch 5 + decode 3)

	// Out-of-order engine.
	IssueWidth  int // Table 4: 8 execution lanes
	LSLanes     int // lanes supporting load-store (Table 4: 2)
	ROBSize     int
	IQSize      int
	LDQSize     int
	STQSize     int
	PhysRegs    int
	CommitWidth int

	// Value-prediction engine plumbing.
	PVTEntries  int // predicted values table (32)
	PAQEntries  int // predicted address queue (32)
	PAQLifetime int // cycles before an unprobed PAQ entry is dropped (N=4)

	// Misprediction penalties.
	ValueCheckPenalty int // extra cycles to confirm a predicted value (1)

	Mem    mem.HierarchyConfig
	TAGE   branch.TAGEConfig
	ITTAGE branch.ITTAGEConfig
	MDP    mdp.Config

	VP VPConfig
}

// Baseline returns the Table 4 core with no value prediction.
func Baseline() Core {
	return Core{
		FetchWidth:   4,
		FrontLatency: 8, // fetch (5) + decode (3); rename is the next stage
		IssueWidth:   8,
		LSLanes:      2,
		ROBSize:      224,
		IQSize:       97,
		LDQSize:      72,
		STQSize:      56,
		PhysRegs:     348,
		CommitWidth:  8,

		PVTEntries: 32,
		PAQEntries: 32,
		// The paper's N=4 matches their 5+3-stage front end exactly: N is
		// "the guaranteed minimum number of cycles available for retrieving
		// the values before the load reaches Rename". For this model's
		// front end the PAQ entry arrives at fetch+2 and the load renames
		// no earlier than fetch+8, so the equivalent guaranteed window is 6.
		PAQLifetime: 6,

		ValueCheckPenalty: 1,

		Mem:    mem.DefaultHierarchyConfig(),
		TAGE:   branch.DefaultTAGEConfig(),
		ITTAGE: branch.DefaultITTAGEConfig(),
		MDP:    mdp.DefaultConfig(),

		VP: VPConfig{
			Scheme:                 VPNone,
			PAP:                    pap.DefaultConfig(),
			CAP:                    cap.DefaultConfig(),
			VTAGE:                  vtage.DefaultConfig(),
			DVTAGE:                 dvtage.DefaultConfig(),
			Chooser:                tournament.DefaultConfig(),
			LSCDEntries:            4,
			ProbePrefetch:          true,
			MaxPredictionsPerCycle: 2,
		},
	}
}

// WithScheme returns a copy of the core configured for the given
// value-prediction scheme.
func (c Core) WithScheme(s VPScheme) Core {
	c.VP.Scheme = s
	return c
}

// DLVP returns the paper's DLVP configuration on the Table 4 baseline.
func DLVP() Core { return Baseline().WithScheme(VPDLVP) }

// VTAGE returns the paper's best VTAGE configuration (static filter, loads
// only) on the Table 4 baseline.
func VTAGE() Core { return Baseline().WithScheme(VPVTAGE) }

// CAPDLVP returns DLVP-with-CAP (confidence 24) on the Table 4 baseline.
func CAPDLVP() Core { return Baseline().WithScheme(VPCAP) }

// Tournament returns the combined DLVP+VTAGE configuration.
func Tournament() Core { return Baseline().WithScheme(VPTournament) }

// DVTAGE returns conventional value prediction with the differential
// D-VTAGE predictor (related-work comparison).
func DVTAGE() Core { return Baseline().WithScheme(VPDVTAGE) }

// SchemeNames lists the named scheme presets accepted by ByScheme, in
// presentation order.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, r := range schemes {
		names[i] = r.name
	}
	return names
}

// ByScheme resolves a scheme name (as printed by VPScheme.String) to its
// Table 4 preset. The CLIs and the HTTP daemon share this mapping.
func ByScheme(name string) (Core, bool) {
	for i, r := range schemes {
		if r.name == name {
			return Baseline().WithScheme(VPScheme(i)), true
		}
	}
	return Core{}, false
}
