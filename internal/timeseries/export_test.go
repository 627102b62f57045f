package timeseries

// SumReference exposes the reference merge to the external test
// package, which checks the sums a node records against it.
var SumReference = sumReference

// Len returns the number of segments.
func (t *Trace) Len() int { return len(t.segs) }
