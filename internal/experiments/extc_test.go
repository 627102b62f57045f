package experiments

import (
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/stats"
)

// TestMeanGPUAveragesOverTheNodesGPUs: the mean runs over however many
// GPUs the node has, and a node without GPUs draws 0.
func TestMeanGPUAveragesOverTheNodesGPUs(t *testing.T) {
	gpu := func(mean float64) core.Profile { return core.Profile{Summary: stats.Summary{Mean: mean}} }
	if got := meanGPU(core.JobProfile{GPUs: []core.Profile{gpu(200), gpu(300)}}); got != 250 {
		t.Errorf("two GPUs: mean %v, want 250", got)
	}
	if got := meanGPU(core.JobProfile{}); got != 0 {
		t.Errorf("no GPUs: mean %v, want 0", got)
	}
}
