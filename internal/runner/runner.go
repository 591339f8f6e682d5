// Package runner is the repository's simulation execution engine. Every
// subsystem that needs a timing simulation — the experiment drivers, the
// CLIs, the benchmark harness and the HTTP daemon — submits Jobs here
// instead of spawning its own goroutines.
//
// The engine provides:
//
//   - a job abstraction: Job{Workload, Config, Instrs} -> metrics.RunStats;
//   - a bounded worker pool whose slots are acquired *inside* the worker
//     goroutine, so submission never blocks and cancellation via
//     context.Context is honoured while a job is still queued;
//   - a content-addressed, in-memory LRU result cache keyed by
//     hash(workload, canonical-config, instrs), so identical runs (common
//     across the paper's figures, which all re-simulate the Table 4
//     baseline) are computed exactly once;
//   - coalescing of concurrent identical jobs (single-flight): a duplicate
//     submitted while its twin is still simulating waits for that result
//     instead of burning a second worker;
//   - deterministic aggregation (RunAll returns results in submission
//     order regardless of completion order), progress callbacks, and
//     engine-level statistics (queue depths, cache hit ratio, aggregate
//     simulated-instructions per second).
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dlvp/internal/checkpoint"
	"dlvp/internal/config"
	"dlvp/internal/lru"
	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/siteprof"
	"dlvp/internal/timeline"
	"dlvp/internal/trace"
	"dlvp/internal/tracecache"
	"dlvp/internal/uarch"
	"dlvp/internal/workloads"
)

// Job is one simulation request: run the named workload for Instrs dynamic
// instructions under Config. Jobs are pure values; two jobs with equal
// fields are the same computation and share one cache entry.
type Job struct {
	Workload string      `json:"workload"`
	Config   config.Core `json:"config"`
	Instrs   uint64      `json:"instrs"`
	// Sampling, when non-nil, selects checkpointed sampled execution:
	// the result is a SimPoint-style estimate over Instrs rather than a
	// monolithic detailed simulation. Sampled and full jobs over the
	// same (workload, config, instrs) are distinct computations and hash
	// to distinct cache keys.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
}

// Key returns the job's content address: a hex SHA-256 over the canonical
// encoding of (workload, config, instrs). Configurations are plain data
// (no funcs, no maps), so their JSON encoding is canonical: struct fields
// marshal in declaration order.
func (j Job) Key() (string, error) {
	enc, err := json.Marshal(j)
	if err != nil {
		return "", fmt.Errorf("runner: canonicalize job: %w", err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}

// UnknownWorkloadError reports a job naming a workload that is not in the
// registry. Callers (CLIs, the HTTP server) unwrap it to produce a helpful
// "known workloads" message.
type UnknownWorkloadError struct {
	Name string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("unknown workload %q", e.Name)
}

// Result is the full product of one job: the aggregate statistics and,
// when the engine records timelines, the interval flight-recorder series.
// Results are what the content-addressed cache stores, so a cached job
// replays with its timeline intact.
type Result struct {
	Stats metrics.RunStats `json:"stats"`
	// Timeline is nil when the engine ran without timeline recording.
	// Sampled jobs always carry one (one sample per interval).
	Timeline *timeline.Timeline `json:"timeline,omitempty"`
	// Sampled is set on results produced by checkpointed sampled
	// execution; nil means a monolithic detailed run.
	Sampled *SampledInfo `json:"sampled,omitempty"`
	// Sites is the per-load-site misprediction attribution profile; nil
	// when the engine ran without site profiling. Sampled jobs merge one
	// profile per measured interval.
	Sites *siteprof.Profile `json:"sites,omitempty"`
}

// DefaultCacheEntries is the result-cache capacity when Options.CacheEntries
// is zero. A RunStats is a few hundred bytes, so the default costs ~1-2 MB
// (timeline-recording engines add up to ~200 KB per entry).
const DefaultCacheEntries = 4096

// TimelineOptions configures flight-recorder sampling for every job the
// engine executes.
type TimelineOptions struct {
	// Enabled turns interval sampling on.
	Enabled bool
	// IntervalInstrs is the committed-instruction sampling interval
	// (0: timeline.DefaultIntervalInstrs).
	IntervalInstrs uint64
	// Capacity bounds the per-run sample ring (0: timeline.DefaultCapacity).
	Capacity int
}

// SiteOptions configures per-load-site misprediction attribution for
// every job the engine executes.
type SiteOptions struct {
	// Enabled turns per-site attribution on.
	Enabled bool
	// MaxSites bounds tracked static load PCs per run
	// (0: siteprof.DefaultMaxSites). Excess sites fold into the profile's
	// overflow bucket, so totals stay exact.
	MaxSites int
}

// Options parameterises a Runner.
type Options struct {
	// Workers bounds concurrent simulations (<= 0: runtime.NumCPU()).
	Workers int
	// CacheEntries sizes the result cache. 0 selects DefaultCacheEntries;
	// a negative value disables caching (the benchmark harness does this so
	// every iteration measures a real simulation).
	CacheEntries int
	// Obs, when non-nil, registers the engine's latency histograms and
	// cache-outcome counters on the observer's metrics registry and enables
	// per-phase span recording for traced contexts. Nil leaves the engine
	// uninstrumented (library/CLI use); the hooks then cost one pointer test.
	Obs *obs.Observer
	// TraceCache, when non-nil, captures each workload's functional
	// emulation stream on first use and replays it to every subsequent job
	// over the same (workload, instrs), so a configuration matrix pays the
	// emulation cost once per workload instead of once per job. Nil keeps
	// the emulate-per-job behaviour.
	TraceCache *tracecache.Cache
	// Timeline enables flight-recorder sampling on executed jobs; finished
	// timelines ride on Result and the cache, live recorders are reachable
	// through LiveTimeline while a job simulates (SSE streaming).
	Timeline TimelineOptions
	// Checkpoints is the architectural checkpoint store backing sampled
	// jobs (and opportunistic checkpoint capture during full runs when
	// the trace cache is enabled). Nil constructs a store with the
	// default byte budget — every runner can serve sampled jobs.
	Checkpoints *checkpoint.Store
	// Sites enables per-load-site misprediction attribution on executed
	// jobs; finished profiles ride on Result and the cache, live
	// collectors are reachable through LiveSites while a job simulates.
	Sites SiteOptions
}

// instruments holds the engine's telemetry handles (nil when the runner
// was built without an Observer).
type instruments struct {
	queueWait  *obs.Histogram  // seconds a job waited for a worker slot
	simDur     *obs.Histogram  // wall seconds of one executed simulation
	captureDur *obs.Histogram  // wall seconds of simulations that captured their trace
	replayDur  *obs.Histogram  // wall seconds of simulations fed by a replayed trace
	lookups    *obs.CounterVec // cache lookups by outcome hit|miss|coalesced|cancelled|trace_cache
}

func newInstruments(o *obs.Observer) *instruments {
	if o == nil {
		return nil
	}
	reg := o.Metrics
	return &instruments{
		queueWait: reg.Histogram("dlvpd_runner_queue_wait_seconds",
			"Time jobs spent waiting for a worker slot.", nil).With(),
		simDur: reg.Histogram("dlvpd_runner_sim_duration_seconds",
			"Wall time of executed simulations (cache hits excluded).", nil).With(),
		captureDur: reg.Histogram("dlvpd_runner_trace_capture_seconds",
			"Wall time of simulations that recorded their emulation stream into the trace cache.", nil).With(),
		replayDur: reg.Histogram("dlvpd_runner_trace_replay_seconds",
			"Wall time of simulations fed by a replayed (or followed) trace-cache stream.", nil).With(),
		lookups: reg.Counter("dlvpd_runner_cache_lookups_total",
			"Result-cache lookups by outcome.", "outcome"),
	}
}

// registerTraceCacheMetrics exposes the trace cache's counters at scrape
// time. Safe under repeated registration (shared registries re-fetch the
// existing family).
func registerTraceCacheMetrics(reg *obs.Registry, tc *tracecache.Cache) {
	reg.GaugeFunc("dlvpd_tracecache_bytes_resident",
		"Bytes of trace records held by the trace cache (complete captures plus reservations in flight).",
		func() float64 { s := tc.Stats(); return float64(s.ResidentBytes + s.CapturingBytes) })
	reg.GaugeFunc("dlvpd_tracecache_entries",
		"Complete trace captures resident in the trace cache.",
		func() float64 { return float64(tc.Stats().Entries) })
	reg.CounterFunc("dlvpd_tracecache_captures_total",
		"Trace captures started (one live emulation each).",
		func() float64 { return float64(tc.Stats().Captures) })
	reg.CounterFunc("dlvpd_tracecache_replays_total",
		"Simulations fed from a captured trace (replays plus follows).",
		func() float64 { s := tc.Stats(); return float64(s.Replays + s.Follows) })
	reg.CounterFunc("dlvpd_tracecache_evictions_total",
		"Complete captures evicted to respect the byte budget.",
		func() float64 { return float64(tc.Stats().Evictions) })
	reg.CounterFunc("dlvpd_tracecache_emulations_total",
		"Live emulator streams constructed (captures and bypasses).",
		func() float64 { return float64(tc.Stats().Emulations) })
}

// registerCheckpointMetrics exposes the checkpoint store's counters at
// scrape time.
func registerCheckpointMetrics(reg *obs.Registry, st *checkpoint.Store) {
	reg.GaugeFunc("dlvpd_checkpoint_bytes_resident",
		"Bytes of encoded architectural checkpoints resident in the store.",
		func() float64 { return float64(st.Stats().ResidentBytes) })
	reg.GaugeFunc("dlvpd_checkpoint_entries",
		"Architectural checkpoints resident in the store.",
		func() float64 { return float64(st.Stats().Entries) })
	reg.CounterFunc("dlvpd_checkpoint_hits_total",
		"Checkpoint restores served from a resident exact-offset checkpoint.",
		func() float64 { return float64(st.Stats().Hits) })
	reg.CounterFunc("dlvpd_checkpoint_builds_total",
		"Checkpoint builds (chained from an earlier checkpoint or cold from the program entry).",
		func() float64 { s := st.Stats(); return float64(s.Chained + s.Cold) })
	reg.CounterFunc("dlvpd_checkpoint_captured_total",
		"Checkpoints deposited opportunistically by full-run trace captures.",
		func() float64 { return float64(st.Stats().Captured) })
	reg.CounterFunc("dlvpd_checkpoint_evictions_total",
		"Checkpoints evicted to respect the byte budget.",
		func() float64 { return float64(st.Stats().Evictions) })
}

// Runner executes simulation jobs on a bounded pool with result caching.
// The zero value is not usable; construct with New.
type Runner struct {
	workers int
	sem     chan struct{}
	tcache  *tracecache.Cache
	ckpt    *checkpoint.Store
	inst    *instruments
	tlOpts  TimelineOptions
	spOpts  SiteOptions

	// mu guards the result cache, the flights and the live recorders. A
	// lead publishes its result to the cache and retires its flight in one
	// critical section, so a caller that misses the cache always finds the
	// flight (or the cached result) and never simulates a job twice.
	mu        sync.Mutex
	cache     *lru.Cache[string, Result] // nil: caching disabled
	flights   lru.Group[string, Result]
	live      map[string]*timeline.Recorder
	liveSites map[string]*siteprof.Collector

	queued           atomic.Int64
	running          atomic.Int64
	done             atomic.Int64
	failed           atomic.Int64
	cancelled        atomic.Int64
	executed         atomic.Int64
	hits             atomic.Int64
	misses           atomic.Int64
	coalesced        atomic.Int64
	instrs           atomic.Uint64
	simNanos         atomic.Int64
	sampledRuns      atomic.Int64
	sampledIntervals atomic.Int64
}

// New returns a runner with the given options.
func New(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var cache *lru.Cache[string, Result]
	switch {
	case opts.CacheEntries == 0:
		cache = lru.New[string, Result](DefaultCacheEntries)
	case opts.CacheEntries > 0:
		cache = lru.New[string, Result](int64(opts.CacheEntries))
	}
	if opts.Obs != nil && opts.TraceCache != nil {
		registerTraceCacheMetrics(opts.Obs.Metrics, opts.TraceCache)
	}
	ckpt := opts.Checkpoints
	if ckpt == nil {
		ckpt = checkpoint.NewStore(0)
	}
	if opts.Obs != nil {
		registerCheckpointMetrics(opts.Obs.Metrics, ckpt)
	}
	return &Runner{
		workers:   workers,
		sem:       make(chan struct{}, workers),
		cache:     cache,
		tcache:    opts.TraceCache,
		ckpt:      ckpt,
		inst:      newInstruments(opts.Obs),
		tlOpts:    opts.Timeline,
		spOpts:    opts.Sites,
		live:      make(map[string]*timeline.Recorder),
		liveSites: make(map[string]*siteprof.Collector),
	}
}

// TraceCache returns the engine's trace capture/replay cache (nil when
// disabled).
func (r *Runner) TraceCache() *tracecache.Cache { return r.tcache }

// Checkpoints returns the engine's architectural checkpoint store.
func (r *Runner) Checkpoints() *checkpoint.Store { return r.ckpt }

// Workers reports the pool bound.
func (r *Runner) Workers() int { return r.workers }

// Run executes one job, returning its statistics and whether the result
// was served from the cache (or coalesced onto a concurrent twin). It
// blocks until the job finishes, the result is found, or ctx is cancelled
// while the job is still waiting for a worker slot.
func (r *Runner) Run(ctx context.Context, job Job) (metrics.RunStats, bool, error) {
	res, cached, err := r.RunResult(ctx, job)
	return res.Stats, cached, err
}

// RunResult is Run returning the full Result (stats plus timeline when the
// engine records them).
func (r *Runner) RunResult(ctx context.Context, job Job) (Result, bool, error) {
	var zero Result
	if err := ctx.Err(); err != nil {
		r.cancelled.Add(1)
		return zero, false, err
	}
	w, ok := workloads.ByName(job.Workload)
	if !ok {
		r.failed.Add(1)
		return zero, false, &UnknownWorkloadError{Name: job.Workload}
	}
	if job.Sampling != nil {
		if _, err := job.Sampling.Normalize(job.Instrs); err != nil {
			r.failed.Add(1)
			return zero, false, err
		}
	}
	key, err := job.Key()
	if err != nil {
		r.failed.Add(1)
		return zero, false, err
	}

	// StartSpanCtx (not StartSpan) so the phase spans below — queue wait,
	// execute, capture/replay — parent under runner.run instead of landing
	// as flat siblings in the assembled tree.
	ctx, sp := obs.StartSpanCtx(ctx, "runner.run")
	sp.Attr("workload", job.Workload).
		Attr("instrs", strconv.FormatUint(job.Instrs, 10))

	r.mu.Lock()
	if r.cache != nil {
		// A cached result that predates a recording feature cannot satisfy
		// an engine configured to produce it; fall through and re-simulate.
		if res, ok := r.cache.Get(key); ok && r.satisfies(res) {
			r.mu.Unlock()
			r.hits.Add(1)
			r.done.Add(1)
			r.countLookup("hit")
			sp.Attr("cache", "hit").End()
			return res, true, nil
		}
	}
	fl, lead := r.flights.Lead(key)
	r.mu.Unlock()
	if !lead {
		res, err := fl.Join(ctx)
		switch {
		case err == nil:
			r.coalesced.Add(1)
			r.done.Add(1)
			r.countLookup("coalesced")
			sp.Attr("cache", "coalesced").End()
			return res, true, nil
		case err == ctx.Err():
			// The caller gave up waiting; the underlying simulation is
			// unaffected (and usually succeeds), so this is a cancelled
			// wait, not a failed job.
			r.cancelled.Add(1)
			r.countLookup("cancelled")
			sp.Attr("cache", "cancelled").Attr("error", err.Error()).End()
		default:
			// The flight's lead already accounted this failure (or
			// cancellation); counting it again per waiter would
			// multi-count one failed simulation.
			sp.Attr("cache", "coalesced").Attr("error", err.Error()).End()
		}
		return zero, false, err
	}
	if r.cache != nil {
		r.misses.Add(1)
		r.countLookup("miss")
	}

	res, err := r.lead(ctx, key, w, job)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			r.cancelled.Add(1)
		} else {
			r.failed.Add(1)
		}
		sp.Attr("cache", "miss").Attr("error", err.Error()).End()
		return zero, false, err
	}
	r.done.Add(1)
	sp.Attr("cache", "miss").End()
	return res, false, nil
}

// satisfies reports whether a cached result carries every recorded
// artifact this engine is configured to produce. Results cached by an
// engine with fewer recording features enabled (or before a feature
// existed) miss here, forcing a re-simulation that backfills the artifact.
func (r *Runner) satisfies(res Result) bool {
	if r.tlOpts.Enabled && res.Timeline == nil {
		return false
	}
	if r.spOpts.Enabled && res.Sites == nil {
		return false
	}
	return true
}

// CachedResult returns the cached result for a job key, if present. It does
// not count as a cache lookup in the engine statistics (the serving paths
// use Run/RunResult); the timeline HTTP endpoints use it to fetch the
// flight-recorder series of an already-finished run.
func (r *Runner) CachedResult(key string) (Result, bool) {
	if r.cache == nil {
		return Result{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cache.Get(key)
}

// LiveTimeline returns the in-flight recorder for a job key while its
// simulation is running (nil otherwise). The recorder is safe for
// concurrent reads via Snapshot/Partial — this is what the SSE streaming
// endpoint tails.
func (r *Runner) LiveTimeline(key string) *timeline.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live[key]
}

// TimelineEnabled reports whether the engine records flight-recorder
// timelines for executed jobs.
func (r *Runner) TimelineEnabled() bool { return r.tlOpts.Enabled }

// LiveSites returns the in-flight site-attribution collector for a job
// key while its simulation is running (nil otherwise). The collector is
// safe for concurrent reads via Snapshot — this is what the live
// /v1/runs/{id}/sites endpoint polls.
func (r *Runner) LiveSites(key string) *siteprof.Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveSites[key]
}

// SitesEnabled reports whether the engine records per-load-site
// attribution profiles for executed jobs.
func (r *Runner) SitesEnabled() bool { return r.spOpts.Enabled }

// countLookup bumps the cache-outcome counter when instrumented.
func (r *Runner) countLookup(outcome string) {
	if r.inst != nil {
		r.inst.lookups.With(outcome).Inc()
	}
}

// lead simulates a job as the unique owner of its flight, publishing the
// outcome to any coalesced waiters and to the cache.
func (r *Runner) lead(ctx context.Context, key string, w workloads.Workload, job Job) (res Result, err error) {
	defer func() {
		r.mu.Lock()
		if err == nil && r.cache != nil {
			r.cache.Add(key, res, 1)
		}
		r.flights.Finish(key, res, err)
		delete(r.live, key)
		delete(r.liveSites, key)
		r.mu.Unlock()
	}()

	// The worker slot is acquired here, inside the worker's own goroutine,
	// never by the submitter — so a cancelled matrix abandons its queued
	// jobs immediately instead of serialising on submission.
	qsp := obs.StartSpan(ctx, "runner.queue").Attr("workload", job.Workload)
	enqueued := time.Now()
	r.queued.Add(1)
	select {
	case r.sem <- struct{}{}:
		r.queued.Add(-1)
	case <-ctx.Done():
		r.queued.Add(-1)
		qsp.Attr("outcome", "cancelled").End()
		return res, ctx.Err()
	}
	defer func() { <-r.sem }()
	if r.inst != nil {
		r.inst.queueWait.Observe(time.Since(enqueued).Seconds())
	}
	qsp.End()

	// Sampled jobs take the checkpoint-and-interval path; the lead's
	// worker slot (and any idle pool slots) back the interval fan-out.
	if job.Sampling != nil {
		return r.runSampled(ctx, key, w, job)
	}

	xsp := obs.StartSpan(ctx, "runner.execute").Attr("workload", job.Workload)
	r.running.Add(1)
	start := time.Now()

	// The trace cache, when configured, replaces the per-job functional
	// emulation with a capture-once/replay-many stream: the first job over
	// a (workload, instrs) emulates and records the whole stream before it
	// simulates, every other job replays the recording (waiting for it if
	// the capture is in flight). The outcome is the runner.execute span's
	// trace attribute and picks a dedicated duration histogram. The live
	// emulation behind a capture additionally deposits architectural
	// checkpoints into the engine's store as it streams — checkpoint
	// capture rides the trace cache's single-flight guarantee, so a full
	// run leaves behind the restore points a later sampled run needs.
	reader := trace.Reader(nil)
	outcome := tracecache.OutcomeBypass
	if r.tcache != nil {
		reader, _, outcome = r.tcache.Reader(job.Workload, job.Instrs,
			func() trace.Reader { return r.ckpt.Capture(w.CPU(job.Instrs), job.Workload, 0) })
	} else {
		reader = w.Reader(job.Instrs)
	}
	xsp.Attr("trace", string(outcome))
	if outcome == tracecache.OutcomeReplay || outcome == tracecache.OutcomeFollow {
		r.countLookup("trace_cache")
	}

	arena := uarch.AcquireArena()
	defer uarch.ReleaseArena(arena)
	core := uarch.NewAtArena(job.Config, w.Build(), reader, nil, arena)
	if r.tlOpts.Enabled {
		rec := core.EnableTimeline(r.tlOpts.IntervalInstrs, r.tlOpts.Capacity)
		r.mu.Lock()
		r.live[key] = rec
		r.mu.Unlock()
	}
	if r.spOpts.Enabled {
		col := core.EnableSiteProfile(r.spOpts.MaxSites)
		r.mu.Lock()
		r.liveSites[key] = col
		r.mu.Unlock()
	}
	res.Stats = core.Run(0)
	res.Timeline = core.Timeline()
	res.Sites = core.SiteProfile()
	st := res.Stats
	elapsed := time.Since(start)
	r.simNanos.Add(int64(elapsed))
	r.running.Add(-1)
	r.executed.Add(1)
	r.instrs.Add(st.Instructions)
	if r.inst != nil {
		r.inst.simDur.Observe(elapsed.Seconds())
		switch outcome {
		case tracecache.OutcomeCapture:
			r.inst.captureDur.Observe(elapsed.Seconds())
		case tracecache.OutcomeReplay, tracecache.OutcomeFollow:
			r.inst.replayDur.Observe(elapsed.Seconds())
		}
	}
	xsp.Attr("instructions", strconv.FormatUint(st.Instructions, 10)).End()
	return res, nil
}

// Matrix parameterises a RunAll call.
type Matrix struct {
	// MaxParallel additionally bounds this call's concurrency below the
	// runner's pool size (<= 0: bounded only by the pool). The experiment
	// drivers use 1 for their -serial mode.
	MaxParallel int
	// Progress, when non-nil, is invoked after each job completes, with the
	// number done so far and the total. Calls are serialised.
	Progress func(done, total int)
}

// RunAll executes every job, fanning out across the pool, and returns the
// results in submission order (deterministic aggregation regardless of
// completion order). On cancellation it returns ctx.Err(); the first
// job-level error otherwise. Results of jobs that did not run are zero.
func (r *Runner) RunAll(ctx context.Context, jobs []Job, opt Matrix) ([]metrics.RunStats, error) {
	return opt.Run(ctx, jobs, r.Run)
}

// Run executes every job through run, one goroutine per job within
// opt.MaxParallel, with RunAll's contract: results in submission order,
// ctx.Err() on cancellation, else the first job-level error. The runner
// and the dispatcher share it, each passing its own Run.
func (opt Matrix) Run(ctx context.Context, jobs []Job, run func(context.Context, Job) (metrics.RunStats, bool, error)) ([]metrics.RunStats, error) {
	results := make([]metrics.RunStats, len(jobs))
	var local chan struct{}
	if opt.MaxParallel > 0 {
		local = make(chan struct{}, opt.MaxParallel)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		nDone    int
	)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if local != nil {
				select {
				case local <- struct{}{}:
					defer func() { <-local }()
				case <-ctx.Done():
					mu.Lock()
					if firstErr == nil {
						firstErr = ctx.Err()
					}
					mu.Unlock()
					return
				}
			}
			st, _, err := run(ctx, jobs[i])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			results[i] = st
			nDone++
			if opt.Progress != nil {
				opt.Progress(nDone, len(jobs))
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, firstErr
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Workers     int   `json:"workers"`
	JobsQueued  int64 `json:"jobs_queued"`  // waiting for a worker slot now
	JobsRunning int64 `json:"jobs_running"` // simulating now
	JobsDone    int64 `json:"jobs_done"`    // completed, incl. cached/coalesced
	JobsFailed  int64 `json:"jobs_failed"`
	// JobsCancelled counts jobs abandoned by their caller's context —
	// while queued, or while coalesced-waiting on a twin flight whose
	// simulation itself carries on. These are not failures: the
	// underlying work either never started or finished for someone else.
	JobsCancelled   int64   `json:"jobs_cancelled"`
	SimsExecuted    int64   `json:"sims_executed"` // simulations actually run
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	Coalesced       int64   `json:"coalesced"` // duplicates that waited on a twin
	CacheEntries    int     `json:"cache_entries"`
	CacheCapacity   int     `json:"cache_capacity"`
	InstrsSimulated uint64  `json:"instrs_simulated"`
	SimSeconds      float64 `json:"sim_seconds"`    // aggregate worker-seconds spent simulating
	InstrsPerSec    float64 `json:"instrs_per_sec"` // InstrsSimulated / SimSeconds
	// SampledRuns counts jobs executed in checkpointed sampled mode;
	// SampledIntervals the detailed interval simulations behind them.
	SampledRuns      int64 `json:"sampled_runs"`
	SampledIntervals int64 `json:"sampled_intervals"`
	// TraceCache reports the capture/replay cache when configured.
	TraceCache *tracecache.Stats `json:"trace_cache,omitempty"`
	// Checkpoints reports the architectural checkpoint store.
	Checkpoints *checkpoint.Stats `json:"checkpoints,omitempty"`
}

// HitRatio returns cache hits (including coalesced twins) over all cache
// lookups, in [0, 1].
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.Coalesced + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits+s.Coalesced) / float64(total)
}

// Stats snapshots the engine counters.
func (r *Runner) Stats() Stats {
	s := Stats{
		Workers:          r.workers,
		JobsQueued:       r.queued.Load(),
		JobsRunning:      r.running.Load(),
		JobsDone:         r.done.Load(),
		JobsFailed:       r.failed.Load(),
		JobsCancelled:    r.cancelled.Load(),
		SimsExecuted:     r.executed.Load(),
		CacheHits:        r.hits.Load(),
		CacheMisses:      r.misses.Load(),
		Coalesced:        r.coalesced.Load(),
		InstrsSimulated:  r.instrs.Load(),
		SimSeconds:       float64(r.simNanos.Load()) / 1e9,
		SampledRuns:      r.sampledRuns.Load(),
		SampledIntervals: r.sampledIntervals.Load(),
	}
	if r.cache != nil {
		r.mu.Lock()
		s.CacheEntries = r.cache.Len()
		r.mu.Unlock()
		s.CacheCapacity = int(r.cache.Budget())
	}
	if r.tcache != nil {
		ts := r.tcache.Stats()
		s.TraceCache = &ts
	}
	if r.ckpt != nil {
		cs := r.ckpt.Stats()
		s.Checkpoints = &cs
	}
	if s.SimSeconds > 0 {
		s.InstrsPerSec = float64(s.InstrsSimulated) / s.SimSeconds
	}
	return s
}
