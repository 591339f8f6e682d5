package predictor

// LSCD is the Load-Store Conflict Detector: a tiny fully associative filter
// of load PCs that were address-predicted correctly but value-mispredicted —
// the signature of a conflict with an older in-flight store. Filtered loads
// are neither predicted nor trained, so their address-predictor entries age
// out naturally.
type LSCD struct {
	pcs  []uint64
	next int
	size int

	Inserts  uint64
	Filtered uint64
}

// NewLSCD returns a filter with n entries (the paper uses 4).
func NewLSCD(n int) *LSCD {
	if n <= 0 {
		n = 4
	}
	return &LSCD{pcs: make([]uint64, 0, n), size: n}
}

// Insert records a conflicting load PC (FIFO replacement).
func (l *LSCD) Insert(pc uint64) {
	l.Inserts++
	for _, p := range l.pcs {
		if p == pc {
			return
		}
	}
	if len(l.pcs) < l.size {
		l.pcs = append(l.pcs, pc)
		return
	}
	l.pcs[l.next] = pc
	l.next = (l.next + 1) % l.size
}

// Contains reports whether pc is blacklisted; a true result counts as a
// filtered prediction opportunity.
func (l *LSCD) Contains(pc uint64) bool {
	for _, p := range l.pcs {
		if p == pc {
			l.Filtered++
			return true
		}
	}
	return false
}

// Len returns the current occupancy.
func (l *LSCD) Len() int { return len(l.pcs) }
