package core

import (
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/traffic"
)

// ContendedDevice co-simulates background traffic threads with the
// foreground core: before each foreground access, every background
// thread is advanced to the current simulated time, so their requests
// land on the shared device in timestamp order. This is how
// multi-threaded workloads are modelled — one representative core in
// detail, siblings as calibrated traffic (DESIGN.md §3.2).
type ContendedDevice struct {
	inner mem.Device
	sched *traffic.Scheduler
}

var _ mem.Device = (*ContendedDevice)(nil)

// NewContendedDevice wraps inner with background threads.
func NewContendedDevice(inner mem.Device, threads []traffic.Thread) *ContendedDevice {
	return &ContendedDevice{inner: inner, sched: traffic.NewScheduler(threads)}
}

// Name implements mem.Device.
func (c *ContendedDevice) Name() string { return c.inner.Name() }

// Reset implements mem.Device. Background thread state is external;
// callers construct fresh threads per run.
func (c *ContendedDevice) Reset() {
	c.inner.Reset()
	c.sched.Reset()
}

// Stats implements mem.Device.
func (c *ContendedDevice) Stats() mem.DeviceStats { return c.inner.Stats() }

// Access implements mem.Device: background threads are stepped up to
// now first.
func (c *ContendedDevice) Access(now float64, addr uint64, kind mem.Kind) float64 {
	c.sched.Advance(now)
	return c.inner.Access(now, addr, kind)
}
