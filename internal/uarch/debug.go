package uarch

import "fmt"

// Debug returns a one-line internal-state summary for diagnostics.
func (c *Core) Debug() string {
	s := fmt.Sprintf("head=%d fetch=%d rename=%d paq=%d stall=%d",
		c.headSeq, c.fetchSeq, c.renameSeq, c.paqLen(), c.fetchStallUntil)
	for _, t := range c.tables() {
		if t != nil {
			s += fmt.Sprintf(" %s[lookups=%d bits=%d]", t.Name(), t.LookupCount(), t.StorageBits())
		}
	}
	if c.ap != nil {
		s += fmt.Sprintf(" lphist=%#x", c.ap.HistorySnapshot())
	}
	return s
}
