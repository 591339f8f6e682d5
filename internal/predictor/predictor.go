// Package predictor provides the infrastructure shared by all prediction
// schemes in this repository: forward probabilistic confidence counters
// (FPC, Riley & Zilles), deterministic pseudo-random sources, history
// registers (load-path history for PAP, global branch history for VTAGE),
// index/tag folding helpers, the coverage/accuracy bookkeeping the paper
// reports, the LSCD, and the component interfaces (AddressPredictor,
// ValuePredictor, Chooser) through which the core drives every scheme.
package predictor

import "fmt"

// Rand is a small deterministic PRNG (splitmix64). Every probabilistic
// structure owns one so simulations are reproducible run to run.
type Rand struct{ state uint64 }

// NewRand returns a PRNG seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed ^ 0x9e3779b97f4a7c15} }

// Next returns the next 64-bit pseudo-random value.
func (r *Rand) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Chance returns true with probability 1/denom (denom must be a power of
// two; denom==1 always returns true).
func (r *Rand) Chance(denom uint32) bool {
	if denom <= 1 {
		return true
	}
	return r.Next()&uint64(denom-1) == 0
}

// FPC is a forward probabilistic counter: a saturating counter whose forward
// (increment) transitions fire only with a per-state probability, letting a
// narrow counter emulate a much wider one. The paper's PAP uses a 2-bit FPC
// with probability vector {1, 1/2, 1/4}; VTAGE-style predictors use a 3-bit
// FPC with a vector tuned so confidence arrives after 64-128 observations.
type FPC struct {
	// ProbDenoms[k] is the denominator of the probability of the k -> k+1
	// transition (1 means always). len(ProbDenoms) defines saturation.
	ProbDenoms []uint32
	rng        *Rand
}

// NewFPC returns an FPC descriptor with the given probability vector.
func NewFPC(rng *Rand, probDenoms ...uint32) *FPC {
	if len(probDenoms) == 0 {
		panic("predictor: FPC needs at least one transition")
	}
	for _, d := range probDenoms {
		if d == 0 || d&(d-1) != 0 {
			panic(fmt.Sprintf("predictor: FPC probability denominator %d is not a power of two", d))
		}
	}
	return &FPC{ProbDenoms: probDenoms, rng: rng}
}

// Max returns the saturation value of counters governed by this FPC.
func (f *FPC) Max() uint8 { return uint8(len(f.ProbDenoms)) }

// Bump probabilistically advances counter c and returns the new value.
// The advance is computed as a data dependency on the rng draw rather
// than a branch; the rng is consumed exactly when Chance would consume
// it (denominator > 1), so counter sequences are unchanged.
func (f *FPC) Bump(c uint8) uint8 {
	max := uint8(len(f.ProbDenoms))
	if c >= max {
		return max
	}
	d := f.ProbDenoms[c]
	if d <= 1 {
		return c + 1
	}
	hit := f.rng.Next()&uint64(d-1) == 0
	return c + b2u8(hit)
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Saturated reports whether c is at the confident (saturated) state.
func (f *FPC) Saturated(c uint8) bool { return c >= f.Max() }

// ExpectedObservations returns the expected number of successful
// observations needed to saturate from zero — the paper's "an address needs
// to be observed only 8 times" arithmetic.
func (f *FPC) ExpectedObservations() float64 {
	var e float64
	for _, d := range f.ProbDenoms {
		e += float64(d)
	}
	return e
}

// PAPConfidenceFPC returns the paper's PAP confidence descriptor:
// a 2-bit FPC with probability vector {1, 1/2, 1/4} (expected ~7
// observations to saturate, i.e. confidence established around the 8th
// occurrence).
func PAPConfidenceFPC(rng *Rand) *FPC { return NewFPC(rng, 1, 2, 4) }

// VTAGEConfidenceFPC returns a 3-bit FPC whose expected saturation count
// falls in the 64-128 observation band the paper quotes for VTAGE.
func VTAGEConfidenceFPC(rng *Rand) *FPC { return NewFPC(rng, 1, 8, 8, 8, 16, 16, 32) }

// LoadPathHistory is the paper's novel context: a shift register receiving
// bit 2 (the least significant non-zero PC bit for 4-byte instructions) of
// every load's PC. It is speculatively updated at fetch; recovery restores
// a snapshot (a single register, which is what makes PAP's speculative
// state cheap to manage compared to per-static-load histories like CAP's).
type LoadPathHistory struct {
	Bits uint8 // history length in bits (the paper uses 16)
	h    uint64
}

// NewLoadPathHistory returns an empty history of the given length.
func NewLoadPathHistory(bits uint8) *LoadPathHistory {
	if bits == 0 || bits > 64 {
		panic("predictor: load-path history length out of range")
	}
	return &LoadPathHistory{Bits: bits}
}

// Push shifts in bit 2 of a load PC.
func (l *LoadPathHistory) Push(loadPC uint64) {
	l.h = ((l.h << 1) | ((loadPC >> 2) & 1)) & l.mask()
}

// Value returns the current history bits.
func (l *LoadPathHistory) Value() uint64 { return l.h }

// Snapshot returns the state for later restoration.
func (l *LoadPathHistory) Snapshot() uint64 { return l.h }

// Restore resets the history to a snapshot (misprediction recovery).
func (l *LoadPathHistory) Restore(s uint64) { l.h = s & l.mask() }

func (l *LoadPathHistory) mask() uint64 {
	if l.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << l.Bits) - 1
}

// GlobalHistory is a conventional global branch history register (outcome
// bit per conditional branch, plus a path bit for taken branches), used by
// VTAGE and the TAGE family.
type GlobalHistory struct {
	h uint64
}

// Push records a branch outcome.
func (g *GlobalHistory) Push(taken bool) {
	b := uint64(0)
	if taken {
		b = 1
	}
	g.h = g.h<<1 | b
}

// Value returns the raw history register.
func (g *GlobalHistory) Value() uint64 { return g.h }

// Snapshot returns the state for later restoration.
func (g *GlobalHistory) Snapshot() uint64 { return g.h }

// Restore resets to a snapshot.
func (g *GlobalHistory) Restore(s uint64) { g.h = s }

// Fold compresses the low histBits of h into outBits by XOR-folding,
// the standard TAGE-style index compression. The doubling loop computes
// XOR of h>>(k*outBits) for every k in logarithmic steps: after the i-th
// step the value is the XOR over all k < 2^i, and the loop stops once the
// span covers histBits (further terms shift in only zeros).
func Fold(h uint64, histBits, outBits uint8) uint64 {
	if histBits == 0 || outBits == 0 {
		return 0
	}
	if histBits < 64 {
		h &= (uint64(1) << histBits) - 1
	}
	for s := uint(outBits); s < uint(histBits); s <<= 1 {
		h ^= h >> s
	}
	return h & ((uint64(1) << outBits) - 1)
}

// MixPC whitens a PC for index hashing (instructions are 4-byte aligned, so
// the low two bits carry no information). The murmur3-style double
// multiply-shift finalizer matters: a single multiply leaves the low bits
// of strided PC sequences on a lattice, collapsing direct-mapped table
// indices (a 96-site kernel once landed on 36 distinct slots).
func MixPC(pc uint64) uint64 {
	x := pc >> 2
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Stats tracks the coverage/accuracy accounting the paper uses:
// coverage = predicted / eligible dynamic loads,
// accuracy = correct / predicted.
type Stats struct {
	Eligible  uint64 // dynamic instructions the predictor could target
	Predicted uint64 // confident predictions actually made
	Correct   uint64 // predictions that matched the architectural outcome
}

// Record tallies one instruction outcome.
func (s *Stats) Record(predicted, correct bool) {
	s.Eligible++
	if predicted {
		s.Predicted++
		if correct {
			s.Correct++
		}
	}
}

// Coverage returns predicted/eligible in percent.
func (s Stats) Coverage() float64 {
	if s.Eligible == 0 {
		return 0
	}
	return 100 * float64(s.Predicted) / float64(s.Eligible)
}

// Accuracy returns correct/predicted in percent.
func (s Stats) Accuracy() float64 {
	if s.Predicted == 0 {
		return 0
	}
	return 100 * float64(s.Correct) / float64(s.Predicted)
}

// Mispredicted returns the number of wrong predictions.
func (s Stats) Mispredicted() uint64 { return s.Predicted - s.Correct }

// Add accumulates other into s (for averaging across workloads).
func (s *Stats) Add(other Stats) {
	s.Eligible += other.Eligible
	s.Predicted += other.Predicted
	s.Correct += other.Correct
}
