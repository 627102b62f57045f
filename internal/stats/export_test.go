package stats

// Test-only oracles, exported to the stats_test package.
var (
	NewKDEReference   = newKDEReference
	DescribeReference = describeReference
	SameSummary       = sameSummary
	SameModes         = sameModes
)

const LDMSInterval = ldmsInterval
