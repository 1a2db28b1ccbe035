// Package imc models the CPU's integrated memory controller in front of
// socket-local DDR. Compared with the third-party CXL controllers in
// package cxl it is deliberately boring: a short fixed pipeline, no
// transaction layer, no batching pathologies, no thermal governor —
// which is exactly why local and NUMA latencies stay stable in the
// paper while CXL devices do not.
package imc

import (
	"github.com/moatlab/melody/internal/dram"
	"github.com/moatlab/melody/internal/mem"
)

// Config describes an integrated memory controller and its DRAM.
type Config struct {
	Name string
	// PipelineNs is the round-trip controller latency: uncore traversal
	// past the LLC, queue insertion, scheduling, and the return path.
	PipelineNs float64
	DRAM       dram.Config
}

// Controller implements mem.Device for local DRAM.
type Controller struct {
	cfg           Config
	mod           *dram.Module
	reads, writes uint64
	lastDone      float64
}

var _ mem.Device = (*Controller)(nil)

// New constructs a Controller.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg, mod: dram.New(cfg.DRAM)}
}

// Name implements mem.Device.
func (c *Controller) Name() string { return c.cfg.Name }

// Reset implements mem.Device.
func (c *Controller) Reset() {
	c.mod.Reset()
	c.reads, c.writes, c.lastDone = 0, 0, 0
}

// Module exposes the DRAM backend (for calibration tests).
func (c *Controller) Module() *dram.Module { return c.mod }

// Access implements mem.Device.
func (c *Controller) Access(now float64, addr uint64, kind mem.Kind) float64 {
	isWrite := kind == mem.Write
	t := now + c.cfg.PipelineNs/2
	start, done := c.mod.Access(t, addr, isWrite)
	var completion float64
	if isWrite {
		// Posted write: the CPU is done once the controller absorbs it,
		// which we approximate as the scheduled data-transfer start.
		completion = start
		c.writes++
	} else {
		completion = done + c.cfg.PipelineNs/2
		c.reads++
	}
	c.lastDone = completion
	return completion
}

// Stats implements mem.Device. It reads the DRAM module's counters at
// the time of the call.
func (c *Controller) Stats() mem.DeviceStats {
	return mem.DeviceStats{
		Reads:     c.reads,
		Writes:    c.writes,
		RowHits:   c.mod.RowHits(),
		RowMisses: c.mod.RowMisses(),
		BusyNs:    c.mod.BusyNs(),
		LastDone:  c.lastDone,
	}
}

// PeakBandwidth returns the DRAM aggregate bandwidth in GB/s.
func (c *Controller) PeakBandwidth() float64 { return c.mod.PeakBandwidth() }
