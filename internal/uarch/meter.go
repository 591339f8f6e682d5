package uarch

import (
	"dlvp/internal/energy"
	"dlvp/internal/predictor"
)

// meterEnergy registers the core's structures with the energy meter and
// feeds in the access counts accumulated during the run. DLVP's probes are
// metered against a one-way slice of the L1D data array (the way-prediction
// power optimisation of Section 3.2.2); demand accesses read the full set.
func (c *Core) meterEnergy() {
	m := c.meter

	l1dBits := c.cfg.Mem.L1D.SizeBytes * 8
	ways := c.cfg.Mem.L1D.Ways
	m.Register(energy.RAMSpec{Name: "L1D", Bits: l1dBits, ReadPorts: 2, WritePorts: 1})
	m.AddReads("L1D", c.hier.L1D.Accesses)
	m.Register(energy.RAMSpec{Name: "L1D-probe", Bits: l1dBits / ways, ReadPorts: 1, WritePorts: 0})
	m.AddReads("L1D-probe", c.hier.Probes)

	m.Register(energy.RAMSpec{Name: "L1I", Bits: c.cfg.Mem.L1I.SizeBytes * 8, ReadPorts: 1, WritePorts: 1})
	m.AddReads("L1I", c.hier.L1I.Accesses)
	m.Register(energy.RAMSpec{Name: "L2", Bits: c.cfg.Mem.L2.SizeBytes * 8, ReadPorts: 1, WritePorts: 1})
	m.AddReads("L2", c.hier.L2.Accesses)
	m.Register(energy.RAMSpec{Name: "L3", Bits: c.cfg.Mem.L3.SizeBytes * 8, ReadPorts: 1, WritePorts: 1})
	m.AddReads("L3", c.hier.L3.Accesses)

	m.Register(energy.PRFSpec(8, 8))
	m.AddReads("PRF", c.prfReads)
	m.AddWrites("PRF", c.prfWrites)

	m.Register(energy.PVTSpec())
	m.AddWrites("PVT", c.pvtWrites)
	m.AddReads("PVT", c.pvtWrites) // each predicted value is read ~once

	for _, t := range c.tables() {
		if t == nil {
			continue
		}
		m.Register(energy.RAMSpec{Name: t.Name(), Bits: t.StorageBits(), ReadPorts: 2, WritePorts: 1})
		m.AddReads(t.Name(), t.LookupCount())
		m.AddWrites(t.Name(), t.LookupCount()) // trained once per lookup
	}
}

// tables returns the prediction components' tables, nil where a component
// is absent.
func (c *Core) tables() [2]predictor.Metered {
	return [2]predictor.Metered{c.ap, c.vp}
}

// Meter exposes the energy meter (populated after Run).
func (c *Core) Meter() *energy.Meter { return c.meter }
