package runner

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dlvp/internal/checkpoint"
	"dlvp/internal/emu"
	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/predictor"
	"dlvp/internal/siteprof"
	"dlvp/internal/timeline"
	"dlvp/internal/trace"
	"dlvp/internal/uarch"
	"dlvp/internal/workloads"
)

// MaxSamplingIntervals bounds how many intervals one sampled job may
// request; it caps per-job goroutine and checkpoint pressure.
const MaxSamplingIntervals = 1024

// sampleStreamSlack is the functional-emulation headroom fed to the
// detailed core past each interval's measured region, so the window
// closes at full pipeline occupancy instead of at stream exhaustion.
// It only needs to exceed the in-flight capacity (ROB + fetch buffer).
const sampleStreamSlack = 4096

// SamplingSpec selects SimPoint-style sampled execution for a job: the
// instruction budget is split into Intervals equal strides; each stride
// holds one measured window, centred within it, whose detailed
// simulation restores an architectural checkpoint, warms the core for
// WarmupInstrs committed instructions (predictors and caches train,
// statistics excluded) and then measures MeasuredInstrs committed
// instructions. Centring keeps any window off the workload's start-up
// transient — an interval anchored at offset 0 would measure the cold
// boot at K times its true weight. The functional
// gap between intervals is covered by checkpoint chaining (fast
// emulation), never by the detailed core — that is where the speedup
// comes from. The JSON field names are the wire shape of the /v1/runs
// "sampling" object.
type SamplingSpec struct {
	// Intervals is the number of sampling intervals K (required, >= 1).
	Intervals int `json:"intervals"`
	// WarmupInstrs is the per-interval warm-up region in committed
	// instructions (0 selects stride/16).
	WarmupInstrs uint64 `json:"warmup"`
	// MeasuredInstrs is the per-interval measured region in committed
	// instructions (0 selects stride/8). Must not exceed the stride.
	MeasuredInstrs uint64 `json:"budget"`
}

// Normalize validates the spec against a job's total instruction budget
// and fills the defaulted fields. It returns the effective spec.
func (sp SamplingSpec) Normalize(totalInstrs uint64) (SamplingSpec, error) {
	if totalInstrs == 0 {
		return sp, fmt.Errorf("runner: sampling requires a bounded instruction budget (instrs > 0)")
	}
	if sp.Intervals < 1 {
		return sp, fmt.Errorf("runner: sampling intervals must be >= 1 (got %d)", sp.Intervals)
	}
	if sp.Intervals > MaxSamplingIntervals {
		return sp, fmt.Errorf("runner: sampling intervals must be <= %d (got %d)", MaxSamplingIntervals, sp.Intervals)
	}
	stride := totalInstrs / uint64(sp.Intervals)
	if stride == 0 {
		return sp, fmt.Errorf("runner: more sampling intervals (%d) than instructions (%d)", sp.Intervals, totalInstrs)
	}
	if sp.MeasuredInstrs == 0 {
		sp.MeasuredInstrs = stride / 8
		if sp.MeasuredInstrs == 0 {
			sp.MeasuredInstrs = 1
		}
	}
	if sp.MeasuredInstrs > stride {
		return sp, fmt.Errorf("runner: sampling budget (%d) exceeds the interval stride (%d)", sp.MeasuredInstrs, stride)
	}
	if sp.WarmupInstrs == 0 {
		sp.WarmupInstrs = stride / 16
	}
	if sp.WarmupInstrs > totalInstrs {
		return sp, fmt.Errorf("runner: sampling warmup (%d) exceeds the instruction budget (%d)", sp.WarmupInstrs, totalInstrs)
	}
	return sp, nil
}

// Stride returns the interval stride for a total budget (valid after
// Normalize succeeded against the same budget).
func (sp SamplingSpec) Stride(totalInstrs uint64) uint64 {
	return totalInstrs / uint64(sp.Intervals)
}

// SampledInfo describes how a sampled result was produced; it rides on
// Result so consumers can tell an estimate from a monolithic
// measurement and judge its cost.
type SampledInfo struct {
	Intervals      int    `json:"intervals"`
	StrideInstrs   uint64 `json:"stride_instrs"`
	WarmupInstrs   uint64 `json:"warmup_instrs"`
	MeasuredInstrs uint64 `json:"measured_instrs"`
	// SpanInstrs is the full budget the estimate stands for.
	SpanInstrs uint64 `json:"span_instrs"`
	// DetailedInstrs is what the detailed core actually committed
	// (warm-up + measured, summed over intervals) — the cost.
	DetailedInstrs uint64 `json:"detailed_instrs"`
	// MeasuredTotal is the committed instructions inside measured
	// regions only (the denominator of every reported rate).
	MeasuredTotal uint64 `json:"measured_total"`
	// EstimatedCycles extrapolates the measured cycles to the full span
	// (SpanInstrs / MeasuredTotal scaling); Result.Stats.Cycles stays
	// the raw measured sum so rates remain exact.
	EstimatedCycles uint64 `json:"estimated_cycles"`
	// Checkpoint restore outcomes for this run's intervals.
	CheckpointHits      int64 `json:"checkpoint_hits"`
	CheckpointChained   int64 `json:"checkpoint_chained"`
	CheckpointCold      int64 `json:"checkpoint_cold"`
	CheckpointCoalesced int64 `json:"checkpoint_coalesced"`
}

// sampledInterval is the per-interval plan: the anchor, the checkpoint
// restore offset below it, and the regions simulated in detail.
type sampledInterval struct {
	anchor   uint64 // measured region start (absolute instruction offset)
	restore  uint64 // checkpoint offset (anchor - warm-up, floored at 0)
	warmup   uint64 // actual warm-up instructions (anchor - restore)
	detailed uint64 // warm-up + measured: the detailed core budget
}

// planIntervals lays out the K intervals for a normalized spec. Each
// measured window is centred in its stride ([i·stride, (i+1)·stride)),
// so the estimator weights every region of the run equally and the
// first window starts far enough in for its warm-up to run.
func planIntervals(sp SamplingSpec, totalInstrs uint64) []sampledInterval {
	stride := sp.Stride(totalInstrs)
	center := (stride - sp.MeasuredInstrs) / 2
	plan := make([]sampledInterval, sp.Intervals)
	for i := range plan {
		anchor := uint64(i)*stride + center
		restore := uint64(0)
		if anchor > sp.WarmupInstrs {
			restore = anchor - sp.WarmupInstrs
		}
		plan[i] = sampledInterval{
			anchor:   anchor,
			restore:  restore,
			warmup:   anchor - restore,
			detailed: (anchor - restore) + sp.MeasuredInstrs,
		}
	}
	return plan
}

// runSampled executes a sampled job. The caller (lead) already holds
// one worker slot and owns the flight for key; extra pool slots are
// borrowed opportunistically so intervals run in parallel without
// starving concurrent jobs.
func (r *Runner) runSampled(ctx context.Context, key string, w workloads.Workload, job Job) (Result, error) {
	var res Result
	spec, err := job.Sampling.Normalize(job.Instrs)
	if err != nil {
		return res, err
	}
	plan := planIntervals(spec, job.Instrs)
	store := r.ckpt
	prog := w.Build()
	scheme := job.Config.VP.Scheme.String()

	xsp := obs.StartSpan(ctx, "runner.sampled").
		Attr("workload", job.Workload).
		Attr("intervals", fmt.Sprint(spec.Intervals))
	r.running.Add(1)
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		r.simNanos.Add(int64(elapsed))
		r.running.Add(-1)
		if r.inst != nil {
			r.inst.simDur.Observe(elapsed.Seconds())
		}
		xsp.End()
	}()
	r.sampledRuns.Add(1)

	info := SampledInfo{
		Intervals:      spec.Intervals,
		StrideInstrs:   spec.Stride(job.Instrs),
		WarmupInstrs:   spec.WarmupInstrs,
		MeasuredInstrs: spec.MeasuredInstrs,
		SpanInstrs:     job.Instrs,
	}
	countOutcome := func(o checkpoint.Outcome) {
		switch o {
		case checkpoint.OutcomeHit:
			info.CheckpointHits++
		case checkpoint.OutcomeChained:
			info.CheckpointChained++
		case checkpoint.OutcomeCold:
			info.CheckpointCold++
		case checkpoint.OutcomeCoalesced:
			info.CheckpointCoalesced++
		}
	}

	// Phase 1 — build the checkpoint chain. Ascending restore offsets
	// chain off each other, so this costs ~one functional emulation pass
	// over the span on a cold store and almost nothing once the store is
	// warm (matrices over one workload share the chain).
	psp := obs.StartSpan(ctx, "runner.sampled.checkpoints").Attr("workload", job.Workload)
	for i := range plan {
		if err := ctx.Err(); err != nil {
			psp.Attr("outcome", "cancelled").End()
			return res, err
		}
		if plan[i].restore == 0 {
			continue
		}
		_, outcome, err := store.StateAt(job.Workload, prog, plan[i].restore)
		if err != nil {
			psp.Attr("error", err.Error()).End()
			return res, fmt.Errorf("runner: sampled interval %d: %w", i, err)
		}
		countOutcome(outcome)
	}
	psp.End()

	// Per-interval progress rides the regular timeline machinery: one
	// recorder sample per completed interval (published in interval
	// order), live-streamable over SSE while the job runs.
	rec := timeline.NewRecorder(spec.MeasuredInstrs, spec.Intervals+2)
	r.mu.Lock()
	r.live[key] = rec
	r.mu.Unlock()

	// Phase 2 — detailed interval simulations, fanned out over borrowed
	// pool slots (the lead's own slot plus any immediately available).
	// resMu guards the per-interval results, the outcome counts, the
	// first error, and in-order publication into the recorder: samples
	// are published as the completed-interval prefix grows, so SSE
	// clients see monotone per-interval progress regardless of
	// completion order.
	var (
		resMu     sync.Mutex
		measured  = make([]timeline.Counters, len(plan))
		detailed  = make([]uint64, len(plan))
		profiles  = make([]*siteprof.Profile, len(plan))
		completed = make([]bool, len(plan))
		firstErr  error
		published int
		cum       timeline.Counters
	)
	setErr := func(err error) {
		resMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		resMu.Unlock()
	}
	stopped := func() bool {
		resMu.Lock()
		defer resMu.Unlock()
		return firstErr != nil
	}
	publishLocked := func() {
		for published < len(plan) && completed[published] {
			cum = cum.Add(measured[published])
			rec.Sample(cum, 0)
			published++
		}
	}

	runInterval := func(i int) {
		iv := plan[i]
		snap, outcome, err := store.StateAt(job.Workload, prog, iv.restore)
		if err != nil {
			setErr(fmt.Errorf("runner: sampled interval %d: %w", i, err))
			return
		}
		cpu := emu.NewFromSnapshot(prog, snap)
		// Slack past the measured region keeps the pipeline full at the
		// closing commit: the window ends by counter, not by stream
		// exhaustion, so no drain cycles leak into the measurement. The
		// detailed core never commits past the window (SetSampleWindow
		// stops it); the slack costs only functional emulation.
		cpu.MaxInstrs = iv.restore + iv.detailed + sampleStreamSlack
		reader := trace.Rebase(cpu, iv.restore)
		arena := uarch.AcquireArena()
		defer uarch.ReleaseArena(arena)
		core := uarch.NewAtArena(job.Config, prog, reader, snap.Mem, arena)
		core.SetSampleWindow(iv.warmup, spec.MeasuredInstrs)
		if r.spOpts.Enabled {
			core.EnableSiteProfile(r.spOpts.MaxSites)
		}
		st := core.Run(0)
		meas, complete := core.MeasuredCounters()
		if !complete {
			setErr(fmt.Errorf("runner: sampled interval %d: workload %q ended inside the sample window (%d of %d instructions committed)",
				i, job.Workload, st.Instructions, iv.detailed))
			return
		}
		resMu.Lock()
		countOutcome(outcome)
		measured[i] = meas
		detailed[i] = st.Instructions
		profiles[i] = core.SiteProfile()
		completed[i] = true
		publishLocked()
		resMu.Unlock()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for extra := 0; extra < len(plan)-1; extra++ {
		select {
		case r.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-r.sem }()
				for i := range idx {
					runInterval(i)
				}
			}()
			continue
		default:
		}
		break // pool busy: the lead runs the rest inline
	}

	for i := range plan {
		if err := ctx.Err(); err != nil {
			setErr(err)
			break
		}
		if stopped() {
			break
		}
		select {
		case idx <- i:
		default:
			runInterval(i) // no free helper: the lead simulates it inline
		}
	}
	close(idx)
	wg.Wait()

	if firstErr != nil {
		return res, firstErr
	}

	var sum timeline.Counters
	var detailedTotal uint64
	for i := range plan {
		sum = sum.Add(measured[i])
		detailedTotal += detailed[i]
	}
	r.sampledIntervals.Add(int64(len(plan)))
	r.instrs.Add(detailedTotal)
	r.executed.Add(1)

	info.DetailedInstrs = detailedTotal
	info.MeasuredTotal = sum.Instructions
	if sum.Instructions > 0 {
		info.EstimatedCycles = uint64(float64(sum.Cycles) * float64(info.SpanInstrs) / float64(sum.Instructions))
	}

	res.Stats = statsFromMeasured(job.Workload, scheme, sum)
	res.Timeline = rec.Finish(cum, 0, job.Workload, scheme)
	if r.spOpts.Enabled {
		// Per-interval profiles cover only measured regions (warm-up is
		// excluded per interval), so the merged profile reconciles with
		// the summed measured counters.
		merged := siteprof.Merge(profiles, r.spOpts.MaxSites)
		merged.Workload, merged.Scheme = job.Workload, scheme
		res.Sites = merged
	}
	res.Sampled = &info
	return res, nil
}

// statsFromMeasured converts summed measured-region counter deltas into
// a RunStats. Only the counters the timeline tracks are populated —
// rates (IPC, coverage, accuracy, miss rates) are exact over the
// measured regions; counters outside the timeline's scope (way
// mispredictions, tournament attribution, energy, the PAQ fine-grained
// drop reasons) are zero in a sampled result.
func statsFromMeasured(workload, scheme string, sum timeline.Counters) metrics.RunStats {
	st := metrics.RunStats{
		Workload:      workload,
		Scheme:        scheme,
		Cycles:        sum.Cycles,
		Instructions:  sum.Instructions,
		Loads:         sum.Loads,
		Stores:        sum.Stores,
		VP:            predictor.Stats{Eligible: sum.VPEligible, Predicted: sum.VPPredicted, Correct: sum.VPCorrect},
		ValueFlushes:  sum.ValueFlushes,
		BranchFlushes: sum.BranchFlushes,
		OrderFlushes:  sum.OrderFlushes,
		ValueReplays:  sum.ValueReplays,
		Probes:        sum.Probes,
		ProbeHits:     sum.ProbeHits,
		PAQAllocated:  sum.PAQAllocated,
		PAQDropped:    sum.PAQDropped,
		PAQFull:       sum.PAQFull,
		Prefetches:    sum.Prefetches,
		LSCDFiltered:  sum.LSCDFiltered,
		LSCDInserts:   sum.LSCDInserts,
		TLBMisses:     sum.TLBMisses,
	}
	if sum.L1DAccesses > 0 {
		st.L1DMissRate = 100 * float64(sum.L1DMisses) / float64(sum.L1DAccesses)
	}
	if sum.L2Accesses > 0 {
		st.L2MissRate = 100 * float64(sum.L2Misses) / float64(sum.L2Accesses)
	}
	if sum.TLBAccesses > 0 {
		st.TLBMissRate = 100 * float64(sum.TLBMisses) / float64(sum.TLBAccesses)
	}
	return st
}
