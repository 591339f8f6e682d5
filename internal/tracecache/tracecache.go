// Package tracecache is a byte-budgeted, concurrency-safe capture/replay
// cache for functional-emulation trace streams, keyed by (workload,
// instruction budget).
//
// Every experiment matrix sweeps many core configurations over the same
// workloads, yet each timing simulation re-runs the functional emulator
// over an identical instruction stream. The stream is fully determined by
// (workload, instrs) — the emulator takes no configuration — so the cache
// records it once and replays the buffered records to every other
// configuration:
//
//   - the first reader for a key becomes the capture *lead*: it reserves
//     the stream's bytes against the budget, emulates the whole stream
//     into one []trace.Rec (a fixed-size value struct), adds it to the
//     resident LRU and only then returns;
//   - concurrent readers for the same key *follow*: they join the lead's
//     lru.Group flight (one emulation no matter how many configurations
//     ask at once) and wait for the finished slice;
//   - once a capture completes, later readers *replay* it with zero
//     re-emulation.
//
// Emulation runs several times faster than the timing core, so emulating
// first costs a simulation little. Every cached reader is a
// trace.SliceReader over the shared, immutable slice, which the timing
// core serves zero-copy through trace.RandomAccess.
//
// The byte budget bounds resident memory: complete captures live in an LRU
// keyed by bytes, and a capture reserves instrs × RecSize of the same
// budget before it emulates. A stream whose reservation cannot fit — too
// large for the budget, or crowded out by captures already in flight — is
// bypassed to live emulation without buffering. If a lead's source panics
// its flight still finishes, and its followers emulate live instead.
package tracecache

import (
	"context"
	"errors"
	"sync"
	"unsafe"

	"dlvp/internal/lru"
	"dlvp/internal/trace"
)

// RecSize is the in-memory size of one buffered trace record; the byte
// budget is accounted in these units.
const RecSize = int64(unsafe.Sizeof(trace.Rec{}))

// Outcome classifies how a Reader call was served.
type Outcome string

const (
	// OutcomeCapture: this reader's call emulated and recorded the stream.
	OutcomeCapture Outcome = "capture"
	// OutcomeReplay: served entirely from a completed capture.
	OutcomeReplay Outcome = "replay"
	// OutcomeFollow: served from a capture another reader was recording.
	OutcomeFollow Outcome = "follow"
	// OutcomeBypass: served by live emulation without recording (cache
	// disabled, zero budget, the stream cannot be reserved, or the capture
	// it waited on failed).
	OutcomeBypass Outcome = "bypass"
)

// errCaptureFailed finishes a flight that retained no capture.
var errCaptureFailed = errors.New("tracecache: capture failed")

// key names one stream: the first instrs records of workload.
type key struct {
	workload string
	instrs   uint64
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	BudgetBytes    int64 `json:"budget_bytes"`
	ResidentBytes  int64 `json:"resident_bytes"`  // complete captures held
	CapturingBytes int64 `json:"capturing_bytes"` // bytes reserved by captures in flight
	Entries        int   `json:"entries"`         // complete captures resident
	Capturing      int   `json:"capturing"`       // captures in flight now
	Captures       int64 `json:"captures"`        // capture leads started
	CapturesDone   int64 `json:"captures_done"`   // captures that completed and were retained
	Replays        int64 `json:"replays"`         // readers served from a complete capture
	Follows        int64 `json:"follows"`         // readers that joined a capture in flight
	Bypasses       int64 `json:"bypasses"`
	Evictions      int64 `json:"evictions"`
	TooLarge       int64 `json:"too_large"`  // streams whose bound exceeds the budget
	Emulations     int64 `json:"emulations"` // live emulator streams constructed
}

// HitRatio returns the fraction of readers served without starting a new
// emulation (replays and follows over all readers), in [0, 1].
func (s Stats) HitRatio() float64 {
	total := s.Replays + s.Follows + s.Captures + s.Bypasses
	if total == 0 {
		return 0
	}
	return float64(s.Replays+s.Follows) / float64(total)
}

// Cache is the capture/replay cache. The zero value is not usable;
// construct with New. A nil *Cache is a valid "disabled" cache: Reader
// bypasses to live emulation.
type Cache struct {
	budget int64

	// resident holds complete captures costed in bytes; the reservations
	// of captures in flight (live) share its budget, so Trim(live) evicts
	// for both. Evicted slices stay valid for readers already replaying
	// them — the records are immutable and garbage-collected with the
	// last reader.
	mu       sync.Mutex
	resident *lru.Cache[key, []trace.Rec]
	flights  lru.Group[key, []trace.Rec]
	live     int64 // bytes reserved by captures in flight

	captures     int64
	capturesDone int64
	replays      int64
	follows      int64
	bypasses     int64
	evictions    int64
	tooLarge     int64
	emulations   int64
}

// New returns a cache retaining up to budget bytes of trace records.
// A non-positive budget yields a cache that bypasses everything (every
// reader is live emulation), which keeps callers free of nil checks.
func New(budget int64) *Cache {
	if budget < 0 {
		budget = 0
	}
	return &Cache{budget: budget, resident: lru.New[key, []trace.Rec](budget)}
}

// Budget reports the configured byte budget.
func (c *Cache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.budget
}

// Reader returns a trace.Reader for the (workload, instrs) stream, a
// release function (a no-op, kept for callers), and the outcome describing
// how the stream is served. source constructs a fresh live emulation
// stream; the cache calls it for capture leads and bypasses only.
//
// The returned reader produces exactly the records source() would,
// regardless of outcome. A lead returns once it has emulated the whole
// stream, a follower once its lead has; other calls return at once.
func (c *Cache) Reader(workload string, instrs uint64, source func() trace.Reader) (trace.Reader, func(), Outcome) {
	nop := func() {}
	if c == nil {
		return source(), nop, OutcomeBypass
	}
	// An unbounded stream (instrs == 0) or one whose upper bound cannot
	// fit is never buffered. The bound is conservative: a program that
	// halts early would have fit, but workload kernels run forever and
	// always fill their budget.
	size := int64(instrs) * RecSize
	k := key{workload, instrs}
	c.mu.Lock()
	if instrs == 0 || int64(instrs) > c.budget/RecSize {
		if instrs != 0 && c.budget != 0 {
			c.tooLarge++
		}
		return c.bypass(source), nop, OutcomeBypass
	}
	if recs, ok := c.resident.Get(k); ok {
		c.replays++
		c.mu.Unlock()
		return &trace.SliceReader{Recs: recs}, nop, OutcomeReplay
	}
	f, lead := c.flights.Lead(k)
	if !lead {
		c.follows++
		c.mu.Unlock()
		if recs, err := f.Join(context.Background()); err == nil {
			return &trace.SliceReader{Recs: recs}, nop, OutcomeFollow
		}
		c.mu.Lock()
		c.emulations++ // the lead failed: this follower emulates live
		c.mu.Unlock()
		return source(), nop, OutcomeBypass
	}
	// Reserve the stream's bytes, evicting resident captures for room. If
	// the captures in flight leave too little even with nothing resident,
	// stream this one live rather than overshoot.
	if c.live+size > c.budget {
		c.flights.Finish(k, nil, errCaptureFailed) // no waiter can have joined under c.mu
		return c.bypass(source), nop, OutcomeBypass
	}
	c.live += size
	c.evictions += int64(c.resident.Trim(c.live))
	c.captures++
	c.emulations++
	c.mu.Unlock()
	return &trace.SliceReader{Recs: c.capture(k, size, source)}, nop, OutcomeCapture
}

// bypass counts a live, unrecorded stream and starts it. The caller holds
// c.mu; bypass releases it before calling source.
func (c *Cache) bypass(source func() trace.Reader) trace.Reader {
	c.bypasses++
	c.emulations++
	c.mu.Unlock()
	return source()
}

// capture drains source into one slice, retains it and hands it to the
// flight's followers. The flight finishes in a defer, so a panicking
// source still releases its reservation and its waiters.
func (c *Cache) capture(k key, size int64, source func() trace.Reader) []trace.Rec {
	var recs []trace.Rec
	err := errCaptureFailed
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.live -= size
		if err == nil {
			c.capturesDone++
			c.evictions += int64(c.resident.Add(k, recs, int64(len(recs))*RecSize) + c.resident.Trim(c.live))
		}
		c.flights.Finish(k, recs, err)
	}()
	recs = make([]trace.Rec, 0, k.instrs)
	r := source()
	var rec trace.Rec
	for r.Next(&rec) {
		recs = append(recs, rec)
	}
	err = nil
	return recs
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		BudgetBytes:    c.budget,
		ResidentBytes:  c.resident.Used(),
		CapturingBytes: c.live,
		Entries:        c.resident.Len(),
		Capturing:      c.flights.Len(),
		Captures:       c.captures,
		CapturesDone:   c.capturesDone,
		Replays:        c.replays,
		Follows:        c.follows,
		Bypasses:       c.bypasses,
		Evictions:      c.evictions,
		TooLarge:       c.tooLarge,
		Emulations:     c.emulations,
	}
}
