// Package siteprof is the per-load-site misprediction attribution layer:
// the answer to "which static loads mispredict, and why?". The uarch core
// classifies every statistics-eligible load at commit into a cause
// taxonomy — the outcome partition the paper's whole design argues about
// (store conflicts vs address mispredicts vs confidence filtering) — and
// feeds one Event per committed load into a Collector keyed by the load's
// static PC.
//
// Memory stays bounded at any workload size: the collector tracks at most
// MaxSites static PCs; when a new site arrives at capacity the
// least-observed tracked site is folded into a single Overflow bucket.
// Folding (rather than dropping) keeps the package's core invariant exact:
// the sum of per-site counters plus the overflow bucket always equals the
// run's aggregate coverage/accuracy counters, no matter how many sites were
// evicted. The tests and CI gate that reconciliation.
//
// The hot path is single-writer and lock-free: Record is called only by
// the simulating goroutine, and concurrent readers (the daemon's
// /v1/runs/{id}/sites endpoint while a job runs) see periodically
// published immutable snapshots through an atomic pointer.
package siteprof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"dlvp/internal/obs"
)

// Cause is the commit-time outcome classification of one eligible load.
// The first five causes are prediction outcomes (a value prediction was
// made, or suppressed by the oracle-replay model); the rest explain why no
// prediction was made. Together they partition every eligible load
// exactly once.
type Cause uint8

const (
	// CauseCorrect: predicted and the value matched at execute.
	CauseCorrect Cause = iota
	// CauseStoreConflict: the predicted address was correct but the value
	// had changed — the signature of a conflicting store (the paper's
	// Challenge #1, what the LSCD exists to filter).
	CauseStoreConflict
	// CauseAddrMispredict: the address predictor produced the wrong
	// address (changed access pattern, APT entry trained on another path).
	CauseAddrMispredict
	// CauseTagAlias: the APT entry was reallocated by another static load
	// between lookup and train — two sites aliasing one APT slot; the
	// predicted address belonged to the other load.
	CauseTagAlias
	// CauseValueWrong: a value-side (VTAGE/D-VTAGE) prediction missed;
	// no address context applies.
	CauseValueWrong
	// CauseAPTMiss: the address predictor was consulted and missed.
	CauseAPTMiss
	// CauseConfidenceDropped: the APT hit but its confidence counter was
	// not saturated, so no prediction was issued.
	CauseConfidenceDropped
	// CauseLSCDFiltered: the load's PC is blacklisted by the load-store
	// conflict detector; it neither predicts nor trains.
	CauseLSCDFiltered
	// CausePAQDrop: a confident address prediction was made but lost in
	// the pipeline — PAQ overflow, lifetime expiry, probe too late or
	// missing in the L1D, per-cycle install budget, or a full PVT.
	CausePAQDrop
	// CauseUnpredicted: no prediction was attempted — ordered load, fetch
	// group slot limit, or a value predictor with no confident entry.
	CauseUnpredicted

	// NumCauses is the taxonomy size; CauseCounts is indexed by Cause.
	NumCauses = int(CauseUnpredicted) + 1
)

// causeNames are the wire/exposition names, indexed by Cause.
var causeNames = [NumCauses]string{
	"correct", "store_conflict", "addr_mispredict", "tag_alias",
	"value_wrong", "apt_miss", "confidence_dropped", "lscd_filtered",
	"paq_drop", "unpredicted",
}

// String returns the cause's wire name.
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Predicted reports whether the cause implies a prediction was made (and
// therefore counts toward coverage).
func (c Cause) Predicted() bool { return c <= CauseValueWrong }

// Mispredict reports whether the cause is a wrong prediction.
func (c Cause) Mispredict() bool { return c.Predicted() && c != CauseCorrect }

// CauseCounts holds one counter per Cause. It marshals as a JSON object
// keyed by cause name, omitting zero causes.
type CauseCounts [NumCauses]uint64

// MarshalJSON renders the non-zero causes as {"name": count, ...} in
// taxonomy order.
func (cc CauseCounts) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	first := true
	for i, n := range cc {
		if n == 0 {
			continue
		}
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, fmt.Sprintf("%q:%d", causeNames[i], n)...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON parses the object form written by MarshalJSON. Unknown
// cause names are rejected so version skew surfaces instead of silently
// dropping counts.
func (cc *CauseCounts) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*cc = CauseCounts{}
	for name, n := range m {
		found := false
		for i, known := range causeNames {
			if name == known {
				cc[i] = n
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("siteprof: unknown cause %q", name)
		}
	}
	return nil
}

// Event is one committed eligible load's classified outcome, as observed
// by the core at commit.
type Event struct {
	Cause Cause
	// FlushCycles is the estimated pipeline cost of this mispredict's
	// flush recovery (0 when the outcome caused no flush — correct,
	// unpredicted, oracle-suppressed, or selective replay).
	FlushCycles uint64
	// Replay marks a mispredict recovered by selective replay instead of
	// a flush.
	Replay bool
	// Probe outcome of the DLVP L1D probe issued for this load, if any.
	Probed   bool
	ProbeHit bool
	ProbeTLB bool
}

// Counts is the per-site counter block. Eligible/Predicted/Correct mirror
// the aggregate predictor.Stats accounting exactly (one Eligible per
// Event; Predicted/Correct derived from the cause), so per-site sums
// reconcile with the run's RunStats by construction.
type Counts struct {
	Eligible  uint64      `json:"eligible"`
	Predicted uint64      `json:"predicted"`
	Correct   uint64      `json:"correct"`
	Causes    CauseCounts `json:"causes"`

	// Recovery cost attribution.
	Flushes     uint64 `json:"flushes,omitempty"`
	Replays     uint64 `json:"replays,omitempty"`
	FlushCycles uint64 `json:"flush_cycles,omitempty"`

	// DLVP probe traffic attributed to this site's committed loads.
	Probes         uint64 `json:"probes,omitempty"`
	ProbeHits      uint64 `json:"probe_hits,omitempty"`
	ProbeTLBMisses uint64 `json:"probe_tlb_misses,omitempty"`
}

// apply folds one event into the counter block.
func (c *Counts) apply(ev Event) {
	c.Eligible++
	c.Causes[ev.Cause]++
	if ev.Cause.Predicted() {
		c.Predicted++
		if ev.Cause == CauseCorrect {
			c.Correct++
		}
	}
	if ev.FlushCycles > 0 {
		c.Flushes++
		c.FlushCycles += ev.FlushCycles
	}
	if ev.Replay {
		c.Replays++
	}
	if ev.Probed {
		c.Probes++
		if ev.ProbeHit {
			c.ProbeHits++
		}
		if ev.ProbeTLB {
			c.ProbeTLBMisses++
		}
	}
}

// add accumulates other into c (merging two sites or folding into
// overflow).
func (c *Counts) add(other Counts) {
	c.Eligible += other.Eligible
	c.Predicted += other.Predicted
	c.Correct += other.Correct
	for i := range c.Causes {
		c.Causes[i] += other.Causes[i]
	}
	c.Flushes += other.Flushes
	c.Replays += other.Replays
	c.FlushCycles += other.FlushCycles
	c.Probes += other.Probes
	c.ProbeHits += other.ProbeHits
	c.ProbeTLBMisses += other.ProbeTLBMisses
}

// Mispredicts returns wrong predictions (Predicted - Correct).
func (c Counts) Mispredicts() uint64 { return c.Predicted - c.Correct }

// pct returns 100*num/den, or 0 when den is zero (the package-wide
// zero-denominator guard; every rate helper routes through it).
func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Accuracy returns correct/predicted in percent (0 when never predicted).
func (c Counts) Accuracy() float64 { return pct(c.Correct, c.Predicted) }

// Coverage returns predicted/eligible in percent (0 when never eligible).
func (c Counts) Coverage() float64 { return pct(c.Predicted, c.Eligible) }

// ConflictShare returns the fraction of this site's mispredicts caused by
// store conflicts, in percent (0 when it never mispredicted).
func (c Counts) ConflictShare() float64 {
	return pct(c.Causes[CauseStoreConflict], c.Mispredicts())
}

// ProbeHitRate returns L1D probe hits per probe in percent (0 when never
// probed).
func (c Counts) ProbeHitRate() float64 { return pct(c.ProbeHits, c.Probes) }

// FlushCyclesPerKiloInstr returns the site's estimated flush-recovery cost
// in cycles per thousand committed instructions of the profiled region
// (0 when instrs is zero).
func (c Counts) FlushCyclesPerKiloInstr(instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return 1000 * float64(c.FlushCycles) / float64(instrs)
}

// TopCause returns the dominant non-correct cause and its count (false
// when every event was correct or the site is empty).
func (c Counts) TopCause() (Cause, uint64, bool) {
	best, bestN := CauseCorrect, uint64(0)
	for i := 1; i < NumCauses; i++ {
		if c.Causes[i] > bestN {
			best, bestN = Cause(i), c.Causes[i]
		}
	}
	return best, bestN, bestN > 0
}

// SiteReport is one static load site in the wire profile.
type SiteReport struct {
	PC uint64 `json:"pc"`
	Counts
}

// Profile is the finished (or snapshotted) attribution product of one run:
// the wire shape served by GET /v1/runs/{id}/sites and cached alongside
// the run's RunStats. Sites are ranked by mispredict count (the drill-down
// ordering), then eligibility, then PC.
type Profile struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// Instructions is the committed-instruction span the profile covers
	// (the measured region only, for sampled runs) — the denominator of
	// FlushCyclesPerKiloInstr.
	Instructions uint64 `json:"instructions"`
	// MaxSites is the collector's site bound; EvictedSites counts sites
	// folded into Overflow to respect it.
	MaxSites     int `json:"max_sites"`
	EvictedSites int `json:"evicted_sites,omitempty"`
	// Partial marks a snapshot of a still-running collection.
	Partial bool         `json:"partial,omitempty"`
	Sites   []SiteReport `json:"sites"`
	// Overflow accumulates every event whose site is no longer tracked,
	// so Totals reconciles exactly with the run aggregates regardless of
	// eviction.
	Overflow Counts `json:"overflow"`
}

// Totals sums every tracked site plus the overflow bucket. The result's
// Eligible/Predicted/Correct equal the run's aggregate VP stats exactly
// (CI-gated).
func (p *Profile) Totals() Counts {
	var sum Counts
	for i := range p.Sites {
		sum.add(p.Sites[i].Counts)
	}
	sum.add(p.Overflow)
	return sum
}

// Site returns the report for pc, if tracked.
func (p *Profile) Site(pc uint64) (SiteReport, bool) {
	for _, s := range p.Sites {
		if s.PC == pc {
			return s, true
		}
	}
	return SiteReport{}, false
}

// rankSites orders reports by mispredicts desc, eligible desc, PC asc —
// deterministic, drill-down-first.
func rankSites(sites []SiteReport) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if am, bm := a.Mispredicts(), b.Mispredicts(); am != bm {
			return am > bm
		}
		if a.Eligible != b.Eligible {
			return a.Eligible > b.Eligible
		}
		return a.PC < b.PC
	})
}

// Merge combines per-interval profiles (the sampled-simulation path) into
// one, re-applying the site bound: if the union tracks more than maxSites
// sites, the least-observed are folded into the merged overflow.
// maxSites <= 0 selects DefaultMaxSites. Labels and Instructions sum from
// the inputs (first non-empty label wins). Merging nil or empty input
// yields an empty, valid profile.
func Merge(profiles []*Profile, maxSites int) *Profile {
	if maxSites <= 0 {
		maxSites = DefaultMaxSites
	}
	out := &Profile{MaxSites: maxSites}
	byPC := make(map[uint64]*Counts)
	var order []uint64
	for _, p := range profiles {
		if p == nil {
			continue
		}
		if out.Workload == "" {
			out.Workload = p.Workload
		}
		if out.Scheme == "" {
			out.Scheme = p.Scheme
		}
		out.Instructions += p.Instructions
		out.EvictedSites += p.EvictedSites
		out.Overflow.add(p.Overflow)
		for i := range p.Sites {
			s := &p.Sites[i]
			if c, ok := byPC[s.PC]; ok {
				c.add(s.Counts)
			} else {
				cc := s.Counts
				byPC[s.PC] = &cc
				order = append(order, s.PC)
			}
		}
	}
	sites := make([]SiteReport, 0, len(byPC))
	for _, pc := range order {
		sites = append(sites, SiteReport{PC: pc, Counts: *byPC[pc]})
	}
	rankSites(sites)
	if len(sites) > maxSites {
		// Fold the tail beyond the bound; rankSites put the least
		// interesting sites last.
		for _, s := range sites[maxSites:] {
			out.Overflow.add(s.Counts)
			out.EvictedSites++
		}
		sites = sites[:maxSites]
	}
	out.Sites = sites
	return out
}

// --- collection --------------------------------------------------------------

// DefaultMaxSites is the site bound when a caller passes 0. At ~200 bytes
// per site a collector costs ~200 KB regardless of workload size.
const DefaultMaxSites = 1024

// publishInterval is how many recorded events elapse between published
// snapshots (live reads see at most this much staleness; the final Finish
// snapshot is always exact).
const publishInterval = 1 << 16

// pcCacheSize is the direct-mapped (pc -> site) cache in front of the site
// map; a power of two. Commit streams are dominated by a few hot static
// loads, so nearly every Record hits here instead of the map.
const pcCacheSize = 256

type site struct {
	pc     uint64
	counts Counts
}

// Collector accumulates events during a run. Record and Finish are called
// only by the simulating goroutine; Snapshot may be called concurrently
// from any goroutine (it reads an atomically published immutable profile).
type Collector struct {
	workload string
	scheme   string
	maxSites int

	sites    map[uint64]*site
	overflow Counts
	evicted  int

	cacheTag  [pcCacheSize]uint64
	cacheSite [pcCacheSize]*site

	recorded  uint64
	instrs    uint64 // set by Finish
	done      bool
	final     *Profile
	published atomic.Pointer[Profile]
}

// NewCollector returns a collector bound to a run's labels, tracking at
// most maxSites static load sites (0 selects DefaultMaxSites).
func NewCollector(maxSites int, workload, scheme string) *Collector {
	if maxSites <= 0 {
		maxSites = DefaultMaxSites
	}
	c := &Collector{
		workload: workload,
		scheme:   scheme,
		maxSites: maxSites,
		sites:    make(map[uint64]*site, maxSites),
	}
	c.published.Store(c.buildProfile(true))
	return c
}

// MaxSites returns the site bound.
func (c *Collector) MaxSites() int { return c.maxSites }

// Record classifies one committed eligible load at static PC pc. Hot
// path: a direct-mapped cache probe, one counter block update, and a
// countdown to the next published snapshot.
func (c *Collector) Record(pc uint64, ev Event) {
	slot := (pc >> 2) & (pcCacheSize - 1)
	s := c.cacheSite[slot]
	if s == nil || c.cacheTag[slot] != pc {
		s = c.lookupSlow(pc)
		c.cacheSite[slot] = s
		c.cacheTag[slot] = pc
	}
	s.counts.apply(ev)
	c.recorded++
	if c.recorded%publishInterval == 0 {
		c.published.Store(c.buildProfile(true))
	}
}

// lookupSlow resolves pc to its site, admitting it (and evicting the
// least-observed tracked site into the overflow bucket when at capacity).
// Eviction is a linear scan, paid only when a previously unseen PC arrives
// at capacity — bounded by the number of distinct static loads, not by
// dynamic instruction count.
func (c *Collector) lookupSlow(pc uint64) *site {
	if s, ok := c.sites[pc]; ok {
		return s
	}
	if len(c.sites) >= c.maxSites {
		var victim *site
		for _, s := range c.sites {
			if victim == nil || s.counts.Eligible < victim.counts.Eligible {
				victim = s
			}
		}
		c.overflow.add(victim.counts)
		c.evicted++
		delete(c.sites, victim.pc)
		if slot := (victim.pc >> 2) & (pcCacheSize - 1); c.cacheSite[slot] == victim {
			c.cacheSite[slot] = nil
		}
	}
	s := &site{pc: pc}
	c.sites[pc] = s
	return s
}

// buildProfile materialises the current state into an immutable profile.
func (c *Collector) buildProfile(partial bool) *Profile {
	sites := make([]SiteReport, 0, len(c.sites))
	for _, s := range c.sites {
		sites = append(sites, SiteReport{PC: s.pc, Counts: s.counts})
	}
	rankSites(sites)
	return &Profile{
		Workload:     c.workload,
		Scheme:       c.scheme,
		Instructions: c.instrs,
		MaxSites:     c.maxSites,
		EvictedSites: c.evicted,
		Partial:      partial,
		Sites:        sites,
		Overflow:     c.overflow,
	}
}

// Finish freezes the collector into its final profile, covering instrs
// committed instructions. Calling Finish more than once returns the same
// profile.
func (c *Collector) Finish(instrs uint64) *Profile {
	if c.done {
		return c.final
	}
	c.instrs = instrs
	c.done = true
	c.final = c.buildProfile(false)
	c.published.Store(c.final)
	return c.final
}

// Snapshot returns the most recently published profile: the final one
// after Finish, otherwise a partial view at most publishInterval events
// stale. Safe to call concurrently with Record.
func (c *Collector) Snapshot() *Profile { return c.published.Load() }

// --- diffing -----------------------------------------------------------------

// SiteDiff compares one static load site across two runs.
type SiteDiff struct {
	PC uint64 `json:"pc"`
	A  Counts `json:"a"`
	B  Counts `json:"b"`
	// AccuracyDelta is B-A in percentage points (negative = regression).
	AccuracyDelta float64 `json:"accuracy_delta"`
}

// Diff aligns two profiles by PC over sites tracked in both, returning
// one row per shared site ordered by accuracy delta ascending (worst
// regression first).
func Diff(a, b *Profile) []SiteDiff {
	rows := make([]SiteDiff, 0, len(a.Sites))
	for _, sa := range a.Sites {
		sb, ok := b.Site(sa.PC)
		if !ok {
			continue
		}
		rows = append(rows, SiteDiff{
			PC:            sa.PC,
			A:             sa.Counts,
			B:             sb.Counts,
			AccuracyDelta: sb.Accuracy() - sa.Accuracy(),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].AccuracyDelta != rows[j].AccuracyDelta {
			return rows[i].AccuracyDelta < rows[j].AccuracyDelta
		}
		return rows[i].PC < rows[j].PC
	})
	return rows
}

// LargestAccuracyRegression returns the shared site where run B's
// prediction accuracy fell furthest below run A's, and false when no
// shared-and-predicted site regressed. Sites that run B never predicted
// are compared at 0% accuracy only if it made predictions there in run A's
// terms — i.e. both sides must have predicted at least once to count,
// keeping 0/0 sites out of the ranking.
func LargestAccuracyRegression(a, b *Profile) (SiteDiff, bool) {
	for _, row := range Diff(a, b) {
		if row.A.Predicted == 0 || row.B.Predicted == 0 {
			continue
		}
		if row.AccuracyDelta < 0 {
			return row, true
		}
	}
	return SiteDiff{}, false
}

// --- Prometheus exposition ---------------------------------------------------

// promCounters lists the per-site counter families exported by
// WritePrometheus.
var promCounters = []struct {
	name, help string
	value      func(Counts) uint64
}{
	{"dlvp_site_eligible_total", "Committed statistics-eligible loads at the site.",
		func(c Counts) uint64 { return c.Eligible }},
	{"dlvp_site_predicted_total", "Value predictions made for the site's loads.",
		func(c Counts) uint64 { return c.Predicted }},
	{"dlvp_site_correct_total", "Correct value predictions at the site.",
		func(c Counts) uint64 { return c.Correct }},
	{"dlvp_site_flush_cycles_total", "Estimated flush-recovery cycles attributed to the site.",
		func(c Counts) uint64 { return c.FlushCycles }},
}

// WritePrometheus renders the profile in the Prometheus text exposition
// format: per-site counter families labelled by hex PC, a per-cause
// breakdown family, and a per-site accuracy gauge. The overflow bucket is
// exported under pc="overflow" when non-empty so exposition sums match
// the run aggregates.
func WritePrometheus(w io.Writer, p *Profile) {
	type row struct {
		label string
		c     Counts
	}
	rows := make([]row, 0, len(p.Sites)+1)
	for _, s := range p.Sites {
		rows = append(rows, row{fmt.Sprintf("0x%x", s.PC), s.Counts})
	}
	if p.Overflow.Eligible > 0 {
		rows = append(rows, row{"overflow", p.Overflow})
	}
	pw := obs.PromWriter{W: w}
	for _, fam := range promCounters {
		pw.Family(fam.name, "counter", fam.help, "workload", "scheme", "pc")
		for _, r := range rows {
			pw.Uint(fam.value(r.c), p.Workload, p.Scheme, r.label)
		}
	}
	pw.Family("dlvp_site_cause_total", "counter", "Committed loads at the site by attributed cause.",
		"workload", "scheme", "pc", "cause")
	for _, r := range rows {
		for i, n := range r.c.Causes {
			if n == 0 {
				continue
			}
			pw.Uint(n, p.Workload, p.Scheme, r.label, causeNames[i])
		}
	}
	pw.Family("dlvp_site_accuracy_pct", "gauge", "Prediction accuracy at the site (percent).", "workload", "scheme", "pc")
	for _, r := range rows {
		pw.Float(r.c.Accuracy(), p.Workload, p.Scheme, r.label)
	}
}
