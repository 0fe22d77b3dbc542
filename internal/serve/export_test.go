package serve

import "time"

// SetClock substitutes a detector's wall clock and restamps its open
// outage at the new clock, so tests can measure exact durations.
func SetClock(d *Detector, now func() time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now = now
	if !d.ep.recovered {
		d.ep.sinceTS = now()
	}
}
