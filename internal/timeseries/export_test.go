package timeseries

// SumReference exposes the reference merge to the external test
// package, which checks the sums a node records against it.
var SumReference = sumReference
