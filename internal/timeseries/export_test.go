package timeseries

// SumReference exposes the reference Sum to the external test package,
// which drives it with traces recorded by the real engine.
var SumReference = sumReference
