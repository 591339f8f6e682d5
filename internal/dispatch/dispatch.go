// Package dispatch scatters simulation jobs across a ring of backends —
// the in-process runner engine plus any number of peer daemons — and
// gathers their results. It is the layer that turns one dlvpd process
// into a cluster.
//
// Routing is cache-affine: each job's content address (runner.Job.Key) is
// rendezvous-hashed over the backend names, so identical jobs always land
// on the same peer and hit its content-addressed LRU result cache, the
// same way cache-level prediction steers a load to the level already
// holding its line. Around that core the dispatcher provides:
//
//   - active health checking with exponential backoff, automatic ejection
//     of failing peers and automatic reinstatement once they answer again;
//   - a per-peer in-flight limit with a bounded queue, so one slow peer
//     cannot absorb unbounded goroutines — excess work re-routes;
//   - retry with a budget: retryable failures (connection refused, 5xx,
//     per-attempt timeout) re-route to the next backend in the ring until
//     the budget is spent;
//   - optional hedged requests: if the chosen backend has not answered
//     within HedgeAfter, the job is also launched on the next ranked
//     backend and the first response wins (the loser is cancelled);
//   - a guaranteed local fallback: when every peer is ejected, saturated
//     or failing, the job runs on the local engine — a clustered daemon
//     never does worse than standalone mode.
package dispatch

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxInFlight    = 32
	DefaultMaxQueue       = 64
	DefaultRetryBudget    = 3
	DefaultFailThreshold  = 2
	DefaultHealthInterval = 3 * time.Second
	DefaultProbeTimeout   = 2 * time.Second
	DefaultBackoffBase    = 500 * time.Millisecond
	DefaultBackoffMax     = 30 * time.Second
)

// Options parameterises a Dispatcher.
type Options struct {
	// Local is the guaranteed-fallback backend (required). It participates
	// in rendezvous ranking like any peer but is never ejected and never
	// slot-limited — the runner engine bounds its own pool.
	Local Backend
	// Peers are the remote backends forming the rest of the ring.
	Peers []Backend
	// MaxInFlight bounds concurrent requests per peer (0: DefaultMaxInFlight).
	MaxInFlight int
	// MaxQueue bounds waiters queued behind a peer's in-flight limit before
	// further jobs re-route (0: DefaultMaxQueue).
	MaxQueue int
	// RetryBudget is the maximum routed attempts per job, first try
	// included, before the dispatcher falls back to the local guarantee
	// (0: DefaultRetryBudget).
	RetryBudget int
	// HedgeAfter launches a second copy of a straggling job on the next
	// ranked backend after this delay; first response wins (0: disabled).
	HedgeAfter time.Duration
	// FailThreshold is the consecutive-failure streak that ejects a peer
	// (0: DefaultFailThreshold).
	FailThreshold int
	// HealthInterval is the active probe cadence (0: DefaultHealthInterval).
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe (0: DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// BackoffBase/BackoffMax shape the re-probe schedule of failing peers
	// (0: DefaultBackoffBase/DefaultBackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Obs, when non-nil, registers the dispatcher's per-backend counters
	// and histograms and enables dispatch.route/dispatch.hedge spans.
	Obs *obs.Observer
}

// instruments holds the dispatcher's telemetry handles (nil when built
// without an Observer).
type instruments struct {
	attempts *obs.CounterVec   // backend, outcome: ok|error|cancelled|saturated
	latency  *obs.HistogramVec // backend
}

// Dispatcher routes jobs across the backend ring. Construct with New;
// Close stops the health loop.
type Dispatcher struct {
	opts     Options
	local    *backendState
	states   []*backendState // local + peers, registration order
	inst     *instruments
	stop     chan struct{}
	stopOnce sync.Once
}

// New builds a dispatcher over the given backends and, when peers are
// present, starts the active health loop.
func New(opts Options) (*Dispatcher, error) {
	if opts.Local == nil {
		return nil, errors.New("dispatch: Options.Local is required")
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = DefaultRetryBudget
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = DefaultFailThreshold
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = DefaultHealthInterval
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = DefaultProbeTimeout
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = DefaultBackoffBase
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = DefaultBackoffMax
	}
	d := &Dispatcher{opts: opts, stop: make(chan struct{})}
	d.local = newBackendState(opts.Local, true, 0)
	d.states = append(d.states, d.local)
	seen := map[string]bool{d.local.name: true}
	for _, p := range opts.Peers {
		if p == nil {
			continue
		}
		if seen[p.Name()] {
			return nil, errors.New("dispatch: duplicate backend name " + p.Name())
		}
		seen[p.Name()] = true
		d.states = append(d.states, newBackendState(p, false, opts.MaxInFlight))
	}
	if opts.Obs != nil {
		reg := opts.Obs.Metrics
		d.inst = &instruments{
			attempts: reg.Counter("dlvpd_dispatch_attempts_total",
				"Dispatch attempts by backend and outcome (ok, error, cancelled, saturated).",
				"backend", "outcome"),
			latency: reg.Histogram("dlvpd_dispatch_latency_seconds",
				"Per-attempt latency by backend, hedges included.", nil, "backend"),
		}
	}
	if len(d.states) > 1 {
		go d.healthLoop()
	}
	return d, nil
}

// Close stops the health loop. In-flight jobs are unaffected.
func (d *Dispatcher) Close() { d.stopOnce.Do(func() { close(d.stop) }) }

// Peers reports the number of remote backends in the ring.
func (d *Dispatcher) Peers() int { return len(d.states) - 1 }

// count records one attempt outcome on the labelled counter.
func (d *Dispatcher) count(bs *backendState, outcome string) {
	if d.inst != nil {
		d.inst.attempts.With(bs.name, outcome).Inc()
	}
}

// Run routes one job through the ring and blocks for its result. The
// boolean reports whether the result came from a cache (local or remote).
func (d *Dispatcher) Run(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error) {
	res, cached, err := d.RunResult(ctx, job)
	return res.Stats, cached, err
}

// RunResult routes like Run but returns the full runner.Result, so
// sampled-run provenance (and any backend-supplied extras) survives the
// dispatch layer instead of being flattened to bare statistics.
func (d *Dispatcher) RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error) {
	var zero runner.Result
	key, err := job.Key()
	if err != nil {
		return zero, false, err
	}
	ctx, sp := obs.StartSpanCtx(ctx, "dispatch.route")
	sp.Attr("workload", job.Workload)
	order := rank(d.states, key)

	// One logical request blames each backend at most once. Without this,
	// a hedged retry can land on a backend that already failed as an
	// earlier attempt of the same request and eject it on what is really a
	// single logical failure — two passive signals for one request.
	blamed := make(map[string]bool)

	var lastErr error
	attempts := 0
	localTried := false
	for _, bs := range order {
		if attempts >= d.opts.RetryBudget {
			break
		}
		if bs.isEjected() {
			continue
		}
		release, aerr := bs.acquire(ctx, d.opts.MaxQueue)
		if aerr != nil {
			if errors.Is(aerr, ErrSaturated) {
				// Saturation is a routing event, not an attempt: re-route
				// without consuming budget.
				bs.saturated.Add(1)
				d.count(bs, "saturated")
				lastErr = aerr
				continue
			}
			sp.Attr("outcome", "cancelled").End()
			return zero, false, aerr
		}
		attempts++
		if bs.local {
			localTried = true
		}
		res, cached, err := d.execute(ctx, bs, release, job, order, blamed)
		if err == nil {
			sp.Attr("backend", bs.name).Attr("attempts", strconv.Itoa(attempts)).End()
			return res, cached, nil
		}
		if !isRetryable(ctx, err) {
			sp.Attr("backend", bs.name).Attr("outcome", "error").Attr("error", err.Error()).End()
			return zero, false, err
		}
		// Marker span: this attempt failed retryably and the loop will
		// re-route, so the trace shows why the same job appears twice.
		obs.StartSpan(ctx, "dispatch.retry").Mark(obs.MarkerRetry).
			Attr("backend", bs.name).Attr("error", err.Error()).End()
		lastErr = err
	}

	// The local guarantee: whatever happened above — budget exhausted,
	// every peer ejected or saturated — the job still runs in-process
	// unless local execution itself was already attempted and failed.
	if !localTried {
		res, cached, err := d.execute(ctx, d.local, func() {}, job, nil, blamed)
		if err == nil {
			sp.Attr("backend", d.local.name).Attr("attempts", strconv.Itoa(attempts+1)).Attr("fallback", "local").End()
			return res, cached, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("dispatch: no backend available")
	}
	sp.Attr("outcome", "error").Attr("error", lastErr.Error()).End()
	return zero, false, lastErr
}

// callResult carries one backend response through the hedge machinery.
type callResult struct {
	res    runner.Result
	cached bool
	err    error
	blame  bool
	from   *backendState
}

// blame feeds one retryable failure into the passive ejection machinery,
// at most once per logical request when a ledger is present. Only the
// request's main goroutine calls it — hedge goroutines report the blame
// flag through their callResult instead of touching the ledger — so the
// map needs no locking and never outlives the request.
func (d *Dispatcher) blame(bs *backendState, err error, blamed map[string]bool) {
	if blamed != nil {
		if blamed[bs.name] {
			return
		}
		blamed[bs.name] = true
	}
	d.noteFailure(bs, err)
}

// execute runs the job on bs (releasing its slot when the call returns)
// and, when hedging is enabled and bs stalls, races a second copy on the
// next ranked backend. The loser is cancelled; its goroutine drains into
// a buffered channel, so no goroutine outlives its backend call.
func (d *Dispatcher) execute(ctx context.Context, bs *backendState, release func(), job runner.Job, order []*backendState, blamed map[string]bool) (runner.Result, bool, error) {
	var zero runner.Result
	if d.opts.HedgeAfter <= 0 || bs.local || order == nil {
		defer release()
		res, cached, err, blameworthy := d.call(ctx, bs, job)
		if blameworthy {
			d.blame(bs, err, blamed)
		}
		return res, cached, err
	}

	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	ch := make(chan callResult, 2)
	go func() {
		res, cached, err, blameworthy := d.call(pctx, bs, job)
		release()
		ch <- callResult{res, cached, err, blameworthy, bs}
	}()

	timer := time.NewTimer(d.opts.HedgeAfter)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.blame {
			d.blame(r.from, r.err, blamed)
		}
		return r.res, r.cached, r.err
	case <-ctx.Done():
		return zero, false, ctx.Err()
	case <-timer.C:
	}

	hedge, hrelease := d.hedgeCandidate(order, bs)
	if hedge == nil {
		// Nowhere to hedge: wait out the primary.
		select {
		case r := <-ch:
			if r.blame {
				d.blame(r.from, r.err, blamed)
			}
			return r.res, r.cached, r.err
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	}
	hsp := obs.StartSpan(ctx, "dispatch.hedge").
		Attr("primary", bs.name).Attr("hedge", hedge.name)
	hedge.hedges.Add(1)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go func() {
		res, cached, err, blameworthy := d.call(hctx, hedge, job)
		hrelease()
		ch <- callResult{res, cached, err, blameworthy, hedge}
	}()

	// First success wins and cancels the other; if the first finisher
	// failed, the race continues on the survivor. A still-running loser's
	// blame is dropped with its result — it only ever reaches the ledger
	// through this loop, never from the loser's own goroutine.
	var firstErr error
	for i := 0; i < 2; i++ {
		select {
		case r := <-ch:
			if r.blame {
				d.blame(r.from, r.err, blamed)
			}
			if r.err == nil {
				winner, loser := "primary", hedge
				if r.from == hedge {
					winner, loser = "hedge", bs
					hedge.hedgeWins.Add(1)
				}
				hsp.Attr("winner", winner).End()
				// Marker span: the loser's in-flight work is about to be
				// cancelled and would otherwise vanish from the trace.
				obs.StartSpan(ctx, "dispatch.hedge_loser").Mark(obs.MarkerHedgeLoser).
					Attr("backend", loser.name).Attr("winner", r.from.name).End()
				pcancel()
				hcancel()
				return r.res, r.cached, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-ctx.Done():
			hsp.Attr("winner", "cancelled").End()
			return zero, false, ctx.Err()
		}
	}
	hsp.Attr("winner", "none").End()
	return zero, false, firstErr
}

// hedgeCandidate picks the first non-ejected backend after the primary in
// ring order that has a free slot right now. Hedges never queue.
func (d *Dispatcher) hedgeCandidate(order []*backendState, primary *backendState) (*backendState, func()) {
	for _, bs := range order {
		if bs == primary || bs.isEjected() {
			continue
		}
		if release, ok := bs.tryAcquire(); ok {
			return bs, release
		}
	}
	return nil, nil
}

// call performs one backend attempt with accounting, latency observation
// and per-attempt statistics. The trailing boolean reports whether the
// failure is blameworthy — a retryable error not caused by cancellation —
// and the caller feeds it to the ejection state machine (via blame) from
// the request's main goroutine, so the once-per-request ledger is never
// shared across goroutines.
func (d *Dispatcher) call(ctx context.Context, bs *backendState, job runner.Job) (runner.Result, bool, error, bool) {
	bs.attempts.Add(1)
	bs.inflight.Add(1)
	// The attempt span becomes the current span of the backend call's
	// context: an HTTP backend propagates its ID in the traceparent header,
	// so the peer's entire server-side subtree hangs under this attempt in
	// the assembled cluster trace; the local backend's runner spans nest
	// under it directly.
	sctx, sp := obs.StartSpanCtx(ctx, "dispatch.attempt")
	sp.Attr("backend", bs.name).Attr("workload", job.Workload)
	start := time.Now()
	res, cached, err := runBackend(sctx, bs.b, job)
	elapsed := time.Since(start)
	bs.inflight.Add(-1)
	if d.inst != nil {
		d.inst.latency.With(bs.name).Observe(elapsed.Seconds())
	}
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled: either the caller went away or this was a hedge
			// loser. Not a health signal, not a backend failure.
			bs.cancelled.Add(1)
			d.count(bs, "cancelled")
			sp.Attr("outcome", "cancelled").End()
			return res, false, err, false
		}
		bs.failures.Add(1)
		d.count(bs, "error")
		sp.Attr("outcome", "error").Attr("error", err.Error()).End()
		return res, false, err, isRetryable(ctx, err)
	}
	bs.successes.Add(1)
	d.count(bs, "ok")
	d.noteSuccess(bs)
	sp.Attr("outcome", "ok").Attr("cached", strconv.FormatBool(cached)).End()
	return res, cached, nil, false
}

// RunAll executes every job through the dispatcher with the same contract
// as runner.RunAll: results in submission order, first error reported,
// optional extra concurrency bound and progress callback. Experiment
// matrices submitted to a clustered daemon fan out across the ring here.
func (d *Dispatcher) RunAll(ctx context.Context, jobs []runner.Job, opt runner.Matrix) ([]metrics.RunStats, error) {
	return opt.Run(ctx, jobs, d.Run)
}

// BackendStatus is one ring member's state as reported by Status (and by
// the daemon's GET /v1/cluster).
type BackendStatus struct {
	Name                string  `json:"name"`
	Kind                string  `json:"kind"` // "local" | "peer"
	Healthy             bool    `json:"healthy"`
	Ejected             bool    `json:"ejected"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	LastError           string  `json:"last_error,omitempty"`
	InFlight            int64   `json:"in_flight"`
	Waiting             int64   `json:"waiting"`
	Attempts            int64   `json:"attempts"`
	Successes           int64   `json:"successes"`
	Failures            int64   `json:"failures"`
	Cancelled           int64   `json:"cancelled"`
	Saturated           int64   `json:"saturated"`
	Hedges              int64   `json:"hedges"`
	HedgesWon           int64   `json:"hedges_won"`
	NextProbeInMS       float64 `json:"next_probe_in_ms,omitempty"`
}

// Status is the dispatcher's cluster view.
type Status struct {
	Backends     []BackendStatus `json:"backends"`
	Peers        int             `json:"peers"`
	HealthyPeers int             `json:"healthy_peers"`
	RetryBudget  int             `json:"retry_budget"`
	HedgeAfterMS float64         `json:"hedge_after_ms"`
}

// Status snapshots every backend's health and accounting state.
func (d *Dispatcher) Status() Status {
	st := Status{
		RetryBudget:  d.opts.RetryBudget,
		HedgeAfterMS: float64(d.opts.HedgeAfter) / float64(time.Millisecond),
	}
	now := time.Now()
	for _, bs := range d.states {
		b := BackendStatus{
			Name:      bs.name,
			Kind:      "peer",
			InFlight:  bs.inflight.Load(),
			Waiting:   bs.waiting.Load(),
			Attempts:  bs.attempts.Load(),
			Successes: bs.successes.Load(),
			Failures:  bs.failures.Load(),
			Cancelled: bs.cancelled.Load(),
			Saturated: bs.saturated.Load(),
			Hedges:    bs.hedges.Load(),
			HedgesWon: bs.hedgeWins.Load(),
		}
		if bs.local {
			b.Kind = "local"
		}
		bs.mu.Lock()
		b.Ejected = bs.ejected
		b.ConsecutiveFailures = bs.consecFails
		b.LastError = bs.lastErr
		if bs.ejected && !bs.nextProbe.IsZero() {
			if in := bs.nextProbe.Sub(now); in > 0 {
				b.NextProbeInMS = float64(in) / float64(time.Millisecond)
			}
		}
		bs.mu.Unlock()
		b.Healthy = !b.Ejected
		if !bs.local {
			st.Peers++
			if b.Healthy {
				st.HealthyPeers++
			}
		}
		st.Backends = append(st.Backends, b)
	}
	return st
}
