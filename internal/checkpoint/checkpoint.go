package checkpoint

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"dlvp/internal/emu"
	"dlvp/internal/lru"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// DefaultBudgetBytes bounds the store's resident encoded checkpoints
// when a caller passes 0 to NewStore. A checkpoint costs roughly
// 4 KiB per resident memory page plus ~0.5 KiB of header, so the
// default holds thousands of checkpoints for the mini-ISA kernels.
const DefaultBudgetBytes = int64(256 << 20)

// DefaultCaptureStride is the checkpoint spacing used when a full
// emulation pass is captured opportunistically (Capture with stride 0):
// one checkpoint per million dynamic instructions.
const DefaultCaptureStride = uint64(1_000_000)

// Outcome classifies how a StateAt/CPUAt request was served.
type Outcome string

const (
	// OutcomeFresh: offset 0 — a fresh CPU, no store involvement.
	OutcomeFresh Outcome = "fresh"
	// OutcomeHit: decoded from a resident checkpoint at the exact offset.
	OutcomeHit Outcome = "hit"
	// OutcomeChained: restored the nearest earlier checkpoint and
	// emulated the gap (the result is stored for next time).
	OutcomeChained Outcome = "chained"
	// OutcomeCold: no earlier checkpoint existed; emulated from the
	// program entry (the result is stored for next time).
	OutcomeCold Outcome = "cold"
	// OutcomeCoalesced: waited on a concurrent build of the same key.
	OutcomeCoalesced Outcome = "coalesced"
)

// HaltedEarlyError reports a workload that halted before reaching the
// requested checkpoint offset — the stream simply has no state there.
type HaltedEarlyError struct {
	Workload string
	Want     uint64 // requested offset
	Got      uint64 // instructions actually executed
}

func (e *HaltedEarlyError) Error() string {
	return fmt.Sprintf("checkpoint: workload %q halted after %d instructions, before offset %d",
		e.Workload, e.Got, e.Want)
}

// key names one checkpoint: the state of workload after offset dynamic
// instructions.
type key struct {
	workload string
	offset   uint64
}

// entry is one resident encoded checkpoint.
type entry struct {
	enc []byte
	sum [sha256.Size]byte
}

// Stats is a snapshot of the store counters.
type Stats struct {
	BudgetBytes   int64 `json:"budget_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`    // exact-offset restores
	Chained       int64 `json:"chained"` // restored an earlier checkpoint, emulated the gap
	Cold          int64 `json:"cold"`    // emulated from the program entry
	Coalesced     int64 `json:"coalesced"`
	Captured      int64 `json:"captured"` // checkpoints deposited by Capture readers
	Evictions     int64 `json:"evictions"`
}

// Store is an in-memory, byte-budgeted, content-addressed checkpoint
// store keyed by (workload, instruction offset). Safe for concurrent
// use. The zero value is not usable; construct with NewStore. A nil
// *Store is valid and behaves as an always-cold store with no retention.
type Store struct {
	// mu guards the cache, the offset index (kept in step with the cache
	// through its OnDrop hook) and the flights. A flight's snapshot is
	// shared by its waiters, who must Clone it.
	mu      sync.Mutex
	cache   *lru.Cache[key, *entry] // costed in encoded bytes
	index   map[string][]uint64     // workload -> resident offsets, ascending
	flights lru.Group[key, *emu.Snapshot]

	hits      int64
	chained   int64
	cold      int64
	coalesced int64
	captured  int64
	evictions int64
}

// NewStore returns a store retaining up to budget bytes of encoded
// checkpoints (0 selects DefaultBudgetBytes).
func NewStore(budget int64) *Store {
	if budget <= 0 {
		budget = DefaultBudgetBytes
	}
	s := &Store{
		cache: lru.New[key, *entry](budget),
		index: make(map[string][]uint64),
	}
	s.cache.OnDrop = func(k key, _ *entry) { s.indexRemove(k.workload, k.offset) }
	return s
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		BudgetBytes:   s.cache.Budget(),
		ResidentBytes: s.cache.Used(),
		Entries:       s.cache.Len(),
		Hits:          s.hits,
		Chained:       s.chained,
		Cold:          s.cold,
		Coalesced:     s.coalesced,
		Captured:      s.captured,
		Evictions:     s.evictions,
	}
}

// StateAt returns the architectural state of workload (built from prog)
// after exactly offset dynamic instructions. The returned snapshot is a
// private copy the caller owns. Service order: exact resident checkpoint
// (decoded and hash-verified), else restore the nearest earlier
// checkpoint and emulate the gap, else emulate from the program entry;
// either build deposits a checkpoint at offset for next time.
// Concurrent requests for the same (workload, offset) coalesce onto one
// build. A workload that halts before offset yields *HaltedEarlyError.
func (s *Store) StateAt(workload string, prog *program.Program, offset uint64) (*emu.Snapshot, Outcome, error) {
	if offset == 0 {
		return emu.New(prog).Snapshot(), OutcomeFresh, nil
	}
	if s == nil {
		return buildFrom(nil, workload, prog, offset)
	}
	k := key{workload, offset}
	s.mu.Lock()
	if snap, err := s.decodeLocked(k); err == nil && snap != nil {
		s.hits++
		s.mu.Unlock()
		return snap, OutcomeHit, nil
	}
	fl, lead := s.flights.Lead(k)
	if !lead {
		s.mu.Unlock()
		snap, err := fl.Join(context.TODO())
		if err != nil {
			return nil, OutcomeCoalesced, err
		}
		s.mu.Lock()
		s.coalesced++
		s.mu.Unlock()
		return snap.Clone(), OutcomeCoalesced, nil
	}

	// Base for the chain: the nearest resident checkpoint below offset.
	var base *emu.Snapshot
	offs := s.index[workload]
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= offset })
	for i > 0 {
		i--
		snap, err := s.decodeLocked(key{workload, offs[i]})
		if err == nil && snap != nil {
			base = snap
			break
		}
	}
	s.mu.Unlock()

	snap, outcome, err := buildFrom(base, workload, prog, offset)
	if err == nil {
		s.put(workload, offset, snap)
		s.mu.Lock()
		if outcome == OutcomeChained {
			s.chained++
		} else {
			s.cold++
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.flights.Finish(k, snap, err)
	s.mu.Unlock()
	if err != nil {
		return nil, outcome, err
	}
	return snap.Clone(), outcome, nil
}

// buildFrom emulates workload forward to offset, starting from base
// (nil: the program entry). It returns a snapshot at exactly offset.
func buildFrom(base *emu.Snapshot, workload string, prog *program.Program, offset uint64) (*emu.Snapshot, Outcome, error) {
	var cpu *emu.CPU
	outcome := OutcomeCold
	if base != nil && base.Seq <= offset {
		cpu = emu.NewFromSnapshot(prog, base)
		outcome = OutcomeChained
	} else {
		cpu = emu.New(prog)
	}
	cpu.Run(offset - cpu.Executed())
	if cpu.Executed() != offset {
		return nil, outcome, &HaltedEarlyError{Workload: workload, Want: offset, Got: cpu.Executed()}
	}
	return cpu.Snapshot(), outcome, nil
}

// CPUAt returns a CPU for workload restored to exactly offset dynamic
// instructions (see StateAt for the service order). The CPU is
// independent of the store; its MaxInstrs is unset.
func (s *Store) CPUAt(workload string, prog *program.Program, offset uint64) (*emu.CPU, Outcome, error) {
	snap, outcome, err := s.StateAt(workload, prog, offset)
	if err != nil {
		return nil, outcome, err
	}
	return emu.NewFromSnapshot(prog, snap), outcome, nil
}

// decodeLocked decodes the resident entry for k, verifying its content
// hash. Returns (nil, nil) when k is not resident. A hash or codec
// mismatch drops the entry (corruption must not be served) and reports
// the error. Caller holds s.mu.
func (s *Store) decodeLocked(k key) (*emu.Snapshot, error) {
	e, ok := s.cache.Get(k)
	if !ok {
		return nil, nil
	}
	if sha256.Sum256(e.enc) != e.sum {
		s.cache.Remove(k)
		return nil, fmt.Errorf("checkpoint: content hash mismatch for %q@%d", k.workload, k.offset)
	}
	snap, err := Decode(e.enc)
	if err != nil {
		s.cache.Remove(k)
		return nil, err
	}
	return snap, nil
}

// put encodes and inserts a checkpoint, evicting LRU entries to respect
// the byte budget. An encoding larger than the whole budget is not
// retained.
func (s *Store) put(workload string, offset uint64, snap *emu.Snapshot) {
	if s == nil || offset == 0 {
		return
	}
	enc := Encode(snap)
	if int64(len(enc)) > s.cache.Budget() {
		return
	}
	k := key{workload, offset}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cache.Peek(k); ok {
		return
	}
	s.indexInsert(workload, offset)
	e := &entry{enc: enc, sum: sha256.Sum256(enc)}
	s.evictions += int64(s.cache.Add(k, e, int64(len(enc))))
}

func (s *Store) indexInsert(workload string, offset uint64) {
	offs := s.index[workload]
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= offset })
	if i < len(offs) && offs[i] == offset {
		return
	}
	offs = append(offs, 0)
	copy(offs[i+1:], offs[i:])
	offs[i] = offset
	s.index[workload] = offs
}

func (s *Store) indexRemove(workload string, offset uint64) {
	offs := s.index[workload]
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= offset })
	if i < len(offs) && offs[i] == offset {
		s.index[workload] = append(offs[:i], offs[i+1:]...)
	}
}

// --- opportunistic capture ---------------------------------------------------

// Capture wraps cpu (a fresh, entry-positioned emulator owned by the
// caller) so that checkpoints are deposited into the store every stride
// executed instructions as the stream is consumed (0 selects
// DefaultCaptureStride). The runner wraps trace-cache capture leads with
// this, so checkpoint capture rides the single-flight emulation the
// trace cache already guarantees — a monolithic run leaves behind the
// checkpoints a later sampled run restores. A nil store returns cpu
// unchanged.
func (s *Store) Capture(cpu *emu.CPU, workload string, stride uint64) trace.Reader {
	if s == nil {
		return cpu
	}
	if stride == 0 {
		stride = DefaultCaptureStride
	}
	next := (cpu.Executed()/stride + 1) * stride
	return &captureReader{store: s, cpu: cpu, workload: workload, stride: stride, next: next}
}

type captureReader struct {
	store    *Store
	cpu      *emu.CPU
	workload string
	stride   uint64
	next     uint64
}

func (r *captureReader) Next(rec *trace.Rec) bool {
	if !r.cpu.Next(rec) {
		return false
	}
	if r.cpu.Executed() == r.next {
		r.store.put(r.workload, r.next, r.cpu.Snapshot())
		r.store.mu.Lock()
		r.store.captured++
		r.store.mu.Unlock()
		r.next += r.stride
	}
	return true
}
