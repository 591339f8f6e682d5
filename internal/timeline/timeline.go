// Package timeline is the simulation flight recorder: an interval
// time-series of predictor/pipeline state sampled by the uarch core every
// N committed instructions. A run that used to emit one aggregate
// metrics.RunStats at the end becomes an inspectable sequence of
// per-interval deltas — IPC, value-prediction coverage/accuracy, PAP APT
// hit/conflict/alias rates, FPC confidence transitions, PAQ pressure,
// LSCD blacklisting bursts, probe and cache hit rates — so phase
// behaviour (PAP confidence warm-up, store-conflict misprediction bursts)
// can be seen, streamed live, diffed between runs, and reconciled against
// the final aggregate.
//
// Memory is O(capacity) for any run length: when the sample ring fills,
// adjacent samples are merged pairwise (deltas summed, high-water marks
// maxed), halving the resolution instead of dropping data. Unlike plain
// reservoir sampling this downsampling preserves delta sums exactly, so
// the sum of interval deltas always reconciles with the run's final
// RunStats — a property the tests enforce.
package timeline

import (
	"io"
	"strconv"
	"sync"

	"dlvp/internal/obs"
)

// DefaultIntervalInstrs is the sampling interval when a caller passes 0:
// one sample per 100k committed instructions.
const DefaultIntervalInstrs = 100_000

// DefaultCapacity is the sample-ring bound when a caller passes 0. At 512
// samples of ~300 bytes a recorder costs well under 200 KB regardless of
// run length.
const DefaultCapacity = 512

// Counters is a point-in-time snapshot of the monotone counters the
// sampler differentiates. The core fills one in place at each interval
// boundary (no allocation); Sub turns two snapshots into a per-interval
// delta. Every field is a cumulative count, never a rate — rates are
// derived with the zero-guarded helpers on Sample.
type Counters struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	Loads        uint64 `json:"loads"`
	Stores       uint64 `json:"stores"`

	// Value prediction (commit-path accounting).
	VPEligible  uint64 `json:"vp_eligible"`
	VPPredicted uint64 `json:"vp_predicted"`
	VPCorrect   uint64 `json:"vp_correct"`

	// Recovery events.
	ValueFlushes  uint64 `json:"value_flushes"`
	BranchFlushes uint64 `json:"branch_flushes"`
	OrderFlushes  uint64 `json:"order_flushes"`
	ValueReplays  uint64 `json:"value_replays"`

	// Predicted Address Queue pressure.
	PAQAllocated uint64 `json:"paq_allocated"`
	PAQDropped   uint64 `json:"paq_dropped"`
	PAQFull      uint64 `json:"paq_full"`

	// LSCD (store-conflict blacklist) activity.
	LSCDInserts  uint64 `json:"lscd_inserts"`
	LSCDFiltered uint64 `json:"lscd_filtered"`

	// L1D probe traffic (DLVP step 3-5).
	Probes     uint64 `json:"probes"`
	ProbeHits  uint64 `json:"probe_hits"`
	Prefetches uint64 `json:"prefetches"`

	// PAP Address Prediction Table.
	APTLookups     uint64 `json:"apt_lookups"`
	APTHits        uint64 `json:"apt_hits"`
	APTAllocations uint64 `json:"apt_allocations"`
	// APTConfResets counts address-mismatch conflicts (a hitting entry
	// whose stored address disagreed with the executed load).
	APTConfResets uint64 `json:"apt_conf_resets"`
	// APTTagAliases counts entries reallocated between lookup and train —
	// two static loads aliasing onto one APT slot.
	APTTagAliases uint64 `json:"apt_tag_aliases"`

	// FPC confidence transitions (the paper's Challenge #2 warm-up signal).
	FPCBumps       uint64 `json:"fpc_bumps"`
	FPCSaturations uint64 `json:"fpc_saturations"`

	// Memory system.
	L1DAccesses uint64 `json:"l1d_accesses"`
	L1DMisses   uint64 `json:"l1d_misses"`
	L2Accesses  uint64 `json:"l2_accesses"`
	L2Misses    uint64 `json:"l2_misses"`
	L3Accesses  uint64 `json:"l3_accesses"`
	L3Misses    uint64 `json:"l3_misses"`
	TLBAccesses uint64 `json:"tlb_accesses"`
	TLBMisses   uint64 `json:"tlb_misses"`
}

// Sub returns the element-wise delta c - prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Instructions:   c.Instructions - prev.Instructions,
		Cycles:         c.Cycles - prev.Cycles,
		Loads:          c.Loads - prev.Loads,
		Stores:         c.Stores - prev.Stores,
		VPEligible:     c.VPEligible - prev.VPEligible,
		VPPredicted:    c.VPPredicted - prev.VPPredicted,
		VPCorrect:      c.VPCorrect - prev.VPCorrect,
		ValueFlushes:   c.ValueFlushes - prev.ValueFlushes,
		BranchFlushes:  c.BranchFlushes - prev.BranchFlushes,
		OrderFlushes:   c.OrderFlushes - prev.OrderFlushes,
		ValueReplays:   c.ValueReplays - prev.ValueReplays,
		PAQAllocated:   c.PAQAllocated - prev.PAQAllocated,
		PAQDropped:     c.PAQDropped - prev.PAQDropped,
		PAQFull:        c.PAQFull - prev.PAQFull,
		LSCDInserts:    c.LSCDInserts - prev.LSCDInserts,
		LSCDFiltered:   c.LSCDFiltered - prev.LSCDFiltered,
		Probes:         c.Probes - prev.Probes,
		ProbeHits:      c.ProbeHits - prev.ProbeHits,
		Prefetches:     c.Prefetches - prev.Prefetches,
		APTLookups:     c.APTLookups - prev.APTLookups,
		APTHits:        c.APTHits - prev.APTHits,
		APTAllocations: c.APTAllocations - prev.APTAllocations,
		APTConfResets:  c.APTConfResets - prev.APTConfResets,
		APTTagAliases:  c.APTTagAliases - prev.APTTagAliases,
		FPCBumps:       c.FPCBumps - prev.FPCBumps,
		FPCSaturations: c.FPCSaturations - prev.FPCSaturations,
		L1DAccesses:    c.L1DAccesses - prev.L1DAccesses,
		L1DMisses:      c.L1DMisses - prev.L1DMisses,
		L2Accesses:     c.L2Accesses - prev.L2Accesses,
		L2Misses:       c.L2Misses - prev.L2Misses,
		L3Accesses:     c.L3Accesses - prev.L3Accesses,
		L3Misses:       c.L3Misses - prev.L3Misses,
		TLBAccesses:    c.TLBAccesses - prev.TLBAccesses,
		TLBMisses:      c.TLBMisses - prev.TLBMisses,
	}
}

// Add returns the element-wise sum c + other.
func (c Counters) Add(other Counters) Counters {
	neg := Counters{}
	// a + b == a - (0 - b); reuse Sub so the field list lives in one place.
	return c.Sub(neg.Sub(other))
}

// Sample is one interval of the timeline: the delta of every counter over
// [StartInstr, EndInstr) committed instructions, plus interval-local
// high-water marks.
type Sample struct {
	// Index is the ordinal of the first base interval merged into this
	// sample; Intervals is how many base intervals it spans (1 until the
	// ring filled and downsampling merged neighbours).
	Index     int `json:"index"`
	Intervals int `json:"intervals"`

	StartInstr uint64 `json:"start_instr"`
	EndInstr   uint64 `json:"end_instr"`
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`

	// PAQPeak is the high-water Predicted Address Queue occupancy seen
	// during the interval (max over merged intervals).
	PAQPeak int `json:"paq_peak"`

	Delta Counters `json:"delta"`
}

// ratio returns 100*num/den, or 0 when den is zero.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// IPC returns the interval's instructions per cycle (0 for an empty
// interval).
func (s Sample) IPC() float64 {
	if s.Delta.Cycles == 0 {
		return 0
	}
	return float64(s.Delta.Instructions) / float64(s.Delta.Cycles)
}

// Coverage returns predicted/eligible in percent for the interval.
func (s Sample) Coverage() float64 { return ratio(s.Delta.VPPredicted, s.Delta.VPEligible) }

// Accuracy returns correct/predicted in percent for the interval.
func (s Sample) Accuracy() float64 { return ratio(s.Delta.VPCorrect, s.Delta.VPPredicted) }

// APTHitRate returns APT hits per lookup in percent.
func (s Sample) APTHitRate() float64 { return ratio(s.Delta.APTHits, s.Delta.APTLookups) }

// APTConflictRate returns address-mismatch confidence resets per APT
// lookup in percent.
func (s Sample) APTConflictRate() float64 { return ratio(s.Delta.APTConfResets, s.Delta.APTLookups) }

// APTAliasRate returns lookup-to-train tag aliases per APT lookup in
// percent.
func (s Sample) APTAliasRate() float64 { return ratio(s.Delta.APTTagAliases, s.Delta.APTLookups) }

// ProbeHitRate returns L1D probe hits per probe in percent.
func (s Sample) ProbeHitRate() float64 { return ratio(s.Delta.ProbeHits, s.Delta.Probes) }

// PAQDropRate returns dropped/allocated PAQ entries in percent.
func (s Sample) PAQDropRate() float64 { return ratio(s.Delta.PAQDropped, s.Delta.PAQAllocated) }

// L1DMissRate returns the interval's L1D miss rate in percent.
func (s Sample) L1DMissRate() float64 { return ratio(s.Delta.L1DMisses, s.Delta.L1DAccesses) }

// L2MissRate returns the interval's L2 miss rate in percent.
func (s Sample) L2MissRate() float64 { return ratio(s.Delta.L2Misses, s.Delta.L2Accesses) }

// L3MissRate returns the interval's L3 miss rate in percent.
func (s Sample) L3MissRate() float64 { return ratio(s.Delta.L3Misses, s.Delta.L3Accesses) }

// TLBMissRate returns the interval's TLB miss rate in percent.
func (s Sample) TLBMissRate() float64 { return ratio(s.Delta.TLBMisses, s.Delta.TLBAccesses) }

// merge combines s with the immediately following sample next.
func (s Sample) merge(next Sample) Sample {
	out := s
	out.Intervals = s.Intervals + next.Intervals
	out.EndInstr = next.EndInstr
	out.EndCycle = next.EndCycle
	out.Delta = s.Delta.Add(next.Delta)
	if next.PAQPeak > out.PAQPeak {
		out.PAQPeak = next.PAQPeak
	}
	return out
}

// Timeline is the finished flight-recorder product of one run: metadata
// plus the ordered interval samples. It is the wire shape served by
// GET /v1/runs/{id}/timeline and cached content-addressed alongside the
// run's RunStats.
type Timeline struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// IntervalInstrs is the base sampling interval; a sample's true span
	// is IntervalInstrs*Intervals (larger once downsampling merged
	// neighbours), except the final tail sample which may be shorter.
	IntervalInstrs uint64 `json:"interval_instrs"`
	Capacity       int    `json:"capacity"`
	// Merges counts downsampling passes; resolution is halved each time.
	Merges int `json:"merges,omitempty"`
	// Partial marks a timeline snapshotted from a still-running job.
	Partial bool     `json:"partial,omitempty"`
	Samples []Sample `json:"samples"`
}

// Totals sums every interval delta. Because downsampling merges rather
// than discards, the totals equal the run's cumulative counters exactly.
func (t *Timeline) Totals() Counters {
	var sum Counters
	for _, s := range t.Samples {
		sum = sum.Add(s.Delta)
	}
	return sum
}

// Recorder accumulates samples during a run. The producing core calls
// Sample at each interval boundary and Finish once at the end; concurrent
// readers (the SSE streaming endpoint) call Snapshot/Partial. Only the
// boundary path takes the mutex — the per-commit hot path in the core is
// a nil check and a counter decrement.
type Recorder struct {
	mu       sync.Mutex
	interval uint64
	capacity int
	samples  []Sample
	prev     Counters
	next     int // ordinal of the next base interval
	merges   int
	done     bool
	final    *Timeline
}

// NewRecorder returns a recorder sampling every intervalInstrs committed
// instructions into a ring of at most capacity samples (0 selects
// DefaultIntervalInstrs / DefaultCapacity; capacity is clamped to >= 2 so
// downsampling always has a pair to merge).
func NewRecorder(intervalInstrs uint64, capacity int) *Recorder {
	if intervalInstrs == 0 {
		intervalInstrs = DefaultIntervalInstrs
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity < 2 {
		capacity = 2
	}
	return &Recorder{
		interval: intervalInstrs,
		capacity: capacity,
		samples:  make([]Sample, 0, capacity),
	}
}

// IntervalInstrs returns the base sampling interval.
func (r *Recorder) IntervalInstrs() uint64 { return r.interval }

// Sample records the interval ending at the cumulative snapshot cum,
// taken at cycle-time inside cum.Cycles. paqPeak is the high-water PAQ
// occupancy since the previous boundary. Appends never allocate once the
// backing array is at capacity: downsampling reuses it.
func (r *Recorder) Sample(cum Counters, paqPeak int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendLocked(cum, paqPeak)
}

func (r *Recorder) appendLocked(cum Counters, paqPeak int) {
	s := Sample{
		Index:      r.next,
		Intervals:  1,
		StartInstr: r.prev.Instructions,
		EndInstr:   cum.Instructions,
		StartCycle: r.prev.Cycles,
		EndCycle:   cum.Cycles,
		PAQPeak:    paqPeak,
		Delta:      cum.Sub(r.prev),
	}
	r.next++
	r.prev = cum
	r.samples = append(r.samples, s)
	if len(r.samples) >= r.capacity {
		r.downsampleLocked()
	}
}

// downsampleLocked merges adjacent sample pairs in place, halving the
// count (an odd trailing sample is kept as is). Delta sums are preserved
// exactly; only resolution is lost.
func (r *Recorder) downsampleLocked() {
	n := len(r.samples)
	out := 0
	for i := 0; i+1 < n; i += 2 {
		r.samples[out] = r.samples[i].merge(r.samples[i+1])
		out++
	}
	if n%2 == 1 {
		r.samples[out] = r.samples[n-1]
		out++
	}
	r.samples = r.samples[:out]
	r.merges++
}

// Finish records the tail interval (the committed instructions since the
// last boundary, if any) and freezes the recorder into a Timeline.
// Calling Finish more than once returns the same Timeline.
func (r *Recorder) Finish(cum Counters, paqPeak int, workload, scheme string) *Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return r.final
	}
	if cum != r.prev {
		r.appendLocked(cum, paqPeak)
	}
	r.done = true
	r.final = &Timeline{
		Workload:       workload,
		Scheme:         scheme,
		IntervalInstrs: r.interval,
		Capacity:       r.capacity,
		Merges:         r.merges,
		Samples:        append([]Sample(nil), r.samples...),
	}
	return r.final
}

// Snapshot returns a copy of the samples recorded so far and the merge
// generation. A stream that cached N delivered samples must resend from
// scratch when the generation advances (downsampling rewrote history).
func (r *Recorder) Snapshot() (samples []Sample, merges int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Sample(nil), r.samples...), r.merges
}

// Partial returns a Timeline view of a still-recording run (Partial set;
// the tail interval in progress is not included).
func (r *Recorder) Partial(workload, scheme string) *Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return r.final
	}
	return &Timeline{
		Workload:       workload,
		Scheme:         scheme,
		IntervalInstrs: r.interval,
		Capacity:       r.capacity,
		Merges:         r.merges,
		Partial:        true,
		Samples:        append([]Sample(nil), r.samples...),
	}
}

// --- diffing -----------------------------------------------------------------

// DiffRow is one aligned interval of a two-run comparison.
type DiffRow struct {
	Index      int     `json:"index"`
	StartInstr uint64  `json:"start_instr"`
	EndInstr   uint64  `json:"end_instr"`
	IPCA       float64 `json:"ipc_a"`
	IPCB       float64 `json:"ipc_b"`
	AccuracyA  float64 `json:"accuracy_a"`
	AccuracyB  float64 `json:"accuracy_b"`
	CoverageA  float64 `json:"coverage_a"`
	CoverageB  float64 `json:"coverage_b"`
	// AccuracyDelta is B−A in percentage points (negative = regression).
	AccuracyDelta float64 `json:"accuracy_delta"`
	IPCDelta      float64 `json:"ipc_delta"`
}

// Diff aligns two timelines interval-by-interval (by sample position over
// the shorter of the two) and returns comparison rows. Timelines sampled
// at different base intervals or downsampled to different generations
// still align positionally; the instruction ranges reported per row come
// from a so skew is visible rather than hidden.
func Diff(a, b *Timeline) []DiffRow {
	n := min(len(a.Samples), len(b.Samples))
	rows := make([]DiffRow, 0, n)
	for i := 0; i < n; i++ {
		sa, sb := a.Samples[i], b.Samples[i]
		rows = append(rows, DiffRow{
			Index:         sa.Index,
			StartInstr:    sa.StartInstr,
			EndInstr:      sa.EndInstr,
			IPCA:          sa.IPC(),
			IPCB:          sb.IPC(),
			AccuracyA:     sa.Accuracy(),
			AccuracyB:     sb.Accuracy(),
			CoverageA:     sa.Coverage(),
			CoverageB:     sb.Coverage(),
			AccuracyDelta: sb.Accuracy() - sa.Accuracy(),
			IPCDelta:      sb.IPC() - sa.IPC(),
		})
	}
	return rows
}

// LargestAccuracyRegression returns the aligned interval where run B's
// value-prediction accuracy fell furthest below run A's, and false when
// no interval regressed (or nothing aligned).
func LargestAccuracyRegression(a, b *Timeline) (DiffRow, bool) {
	var worst DiffRow
	found := false
	for _, row := range Diff(a, b) {
		if row.AccuracyDelta < 0 && (!found || row.AccuracyDelta < worst.AccuracyDelta) {
			worst = row
			found = true
		}
	}
	return worst, found
}

// --- Prometheus exposition ---------------------------------------------------

// promSeries lists the exported per-interval series: name, help, and the
// value function. Rates are exposed as gauges (they are interval-local,
// not cumulative).
var promSeries = []struct {
	name, help string
	value      func(Sample) float64
}{
	{"dlvp_timeline_instructions", "Committed instructions in the interval.",
		func(s Sample) float64 { return float64(s.Delta.Instructions) }},
	{"dlvp_timeline_cycles", "Cycles elapsed in the interval.",
		func(s Sample) float64 { return float64(s.Delta.Cycles) }},
	{"dlvp_timeline_ipc", "Instructions per cycle in the interval.", Sample.IPC},
	{"dlvp_timeline_vp_coverage_pct", "Value-prediction coverage in the interval (percent).", Sample.Coverage},
	{"dlvp_timeline_vp_accuracy_pct", "Value-prediction accuracy in the interval (percent).", Sample.Accuracy},
	{"dlvp_timeline_apt_hit_pct", "PAP APT hit rate in the interval (percent).", Sample.APTHitRate},
	{"dlvp_timeline_apt_conflict_pct", "PAP APT address-conflict reset rate in the interval (percent).", Sample.APTConflictRate},
	{"dlvp_timeline_apt_alias_pct", "PAP APT lookup-to-train tag-alias rate in the interval (percent).", Sample.APTAliasRate},
	{"dlvp_timeline_fpc_bumps", "FPC confidence bumps in the interval.",
		func(s Sample) float64 { return float64(s.Delta.FPCBumps) }},
	{"dlvp_timeline_fpc_saturations", "FPC counters reaching confidence in the interval.",
		func(s Sample) float64 { return float64(s.Delta.FPCSaturations) }},
	{"dlvp_timeline_paq_peak", "High-water PAQ occupancy in the interval.",
		func(s Sample) float64 { return float64(s.PAQPeak) }},
	{"dlvp_timeline_paq_drop_pct", "PAQ entries dropped per allocated in the interval (percent).", Sample.PAQDropRate},
	{"dlvp_timeline_lscd_inserts", "LSCD blacklist insertions in the interval.",
		func(s Sample) float64 { return float64(s.Delta.LSCDInserts) }},
	{"dlvp_timeline_lscd_filtered", "LSCD-filtered prediction opportunities in the interval.",
		func(s Sample) float64 { return float64(s.Delta.LSCDFiltered) }},
	{"dlvp_timeline_probe_hit_pct", "L1D probe hit rate in the interval (percent).", Sample.ProbeHitRate},
	{"dlvp_timeline_l1d_miss_pct", "L1D miss rate in the interval (percent).", Sample.L1DMissRate},
	{"dlvp_timeline_l2_miss_pct", "L2 miss rate in the interval (percent).", Sample.L2MissRate},
	{"dlvp_timeline_l3_miss_pct", "L3 miss rate in the interval (percent).", Sample.L3MissRate},
	{"dlvp_timeline_value_flushes", "Value-misprediction flushes in the interval.",
		func(s Sample) float64 { return float64(s.Delta.ValueFlushes) }},
	{"dlvp_timeline_branch_flushes", "Branch-misprediction flushes in the interval.",
		func(s Sample) float64 { return float64(s.Delta.BranchFlushes) }},
}

// WritePrometheus renders the timeline in the Prometheus text exposition
// format, one gauge family per series with an interval label (the
// ?format=prom view of GET /v1/runs/{id}/timeline). Interval labels carry
// the sample's starting instruction count so panels align on simulated
// progress rather than array position.
func WritePrometheus(w io.Writer, t *Timeline) {
	pw := obs.PromWriter{W: w}
	for _, series := range promSeries {
		pw.Family(series.name, "gauge", series.help, "workload", "scheme", "interval", "start_instr")
		for _, s := range t.Samples {
			pw.Float(series.value(s), t.Workload, t.Scheme, strconv.Itoa(s.Index), strconv.FormatUint(s.StartInstr, 10))
		}
	}
}
