package experiments

import (
	"fmt"

	"dlvp/internal/config"
	"dlvp/internal/predictor"
	"dlvp/internal/tabletext"
	"dlvp/internal/trace"
)

// standaloneAddress drives the address predictor of scheme configuration
// vp over a workload's committed load stream in program order (predict,
// then train immediately), the standalone protocol behind Figure 4.
func standaloneAddress(p Params, vp config.VPConfig) (predictor.Stats, error) {
	var agg predictor.Stats
	pool, err := p.pool()
	if err != nil {
		return agg, err
	}
	for _, w := range pool {
		if err := p.ctx().Err(); err != nil {
			return agg, err
		}
		pred := vp.Components(1).Address
		r := w.Reader(p.Instrs)
		var rec trace.Rec
		for r.Next(&rec) {
			if !rec.IsLoad() {
				continue
			}
			lk := pred.PredictSlot(0, rec.PC, pred.HistorySnapshot())
			correct := lk.Confident && lk.Addr == rec.Addr
			agg.Record(lk.Confident, correct)
			pred.TrainSlot(0, rec.PC, rec.Addr, 3, -1)
			pred.PushLoad(rec.PC)
		}
	}
	return agg, nil
}

// Fig4 reproduces Figure 4: coverage and accuracy of PAP (confidence 8)
// against CAP swept across confidence levels 3..64, as standalone address
// predictors over the dynamic load stream.
func Fig4(p Params) ([]*tabletext.Table, error) {
	t := &tabletext.Table{
		Title:  "Figure 4: standalone address prediction (all workloads aggregated)",
		Header: []string{"predictor", "confidence", "coverage %", "accuracy %"},
	}
	papStats, err := standaloneAddress(p, config.DLVP().VP)
	if err != nil {
		return nil, err
	}
	t.AddRow("PAP", 8, papStats.Coverage(), papStats.Accuracy())
	var cap8 predictor.Stats
	for _, conf := range []int{3, 8, 16, 24, 32, 64} {
		vp := config.CAPDLVP().VP
		vp.CAP.Confidence = conf
		s, err := standaloneAddress(p, vp)
		if err != nil {
			return nil, err
		}
		if conf == 8 {
			cap8 = s
		}
		t.AddRow("CAP", conf, s.Coverage(), s.Accuracy())
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper at confidence 8: PAP 37%%/99.1%% vs CAP 29.5%%/97.7%%; here PAP %.1f%%/%.2f%% vs CAP %.1f%%/%.2f%%",
			papStats.Coverage(), papStats.Accuracy(), cap8.Coverage(), cap8.Accuracy()),
		"expected shape: PAP acc > 99% at conf 8; CAP needs conf ~64 to match, losing coverage",
	)
	return []*tabletext.Table{t}, nil
}
