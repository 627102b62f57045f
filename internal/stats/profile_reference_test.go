package stats_test

import (
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/stats"
	"vasppower/internal/workloads"
)

// core.ProfileSeries shares one sorted copy between the summary, the
// bandwidth and the KDE. Every profile of a real run must still equal
// one built from the reference Describe and the per-sample KDE fold.
// The test lives here, not in core, because those oracles are
// test-only code of this package.
func TestProfileSeriesMatchesReference(t *testing.T) {
	if core.DefaultSamplingInterval != stats.LDMSInterval {
		t.Fatalf("core.DefaultSamplingInterval %v != the %v s these tests sample at",
			core.DefaultSamplingInterval, stats.LDMSInterval)
	}
	for _, name := range []string{"Si256_hse", "PdO4"} {
		b, _ := workloads.ByName(name)
		out, err := workloads.Run(workloads.RunSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		jp := core.ProfileRun(out, core.DefaultSamplingInterval)
		profiles := append([]core.Profile{jp.NodeTotal, jp.CPU, jp.Mem, jp.GPUSum}, jp.GPUs...)
		for i, p := range profiles {
			xs := p.Series.Values
			if len(xs) == 0 {
				t.Fatalf("%s profile %d: empty series", name, i)
			}
			want, _ := stats.DescribeReference(xs)
			if diff := stats.SameSummary(p.Summary, want); diff != "" {
				t.Fatalf("%s profile %d: summary differs from the reference: %s", name, i, diff)
			}
			modes := stats.NewKDEReference(xs, 0, 512).Modes(stats.DefaultModeThreshold)
			if diff := stats.SameModes(p.Modes(), modes); diff != "" {
				t.Fatalf("%s profile %d: modes differ from the reference KDE: %s", name, i, diff)
			}
			if high, has := p.HighMode(); len(modes) == 0 || !has || high != modes[len(modes)-1] {
				t.Fatalf("%s profile %d: high mode %+v (has %v), want the last of %+v",
					name, i, high, has, modes)
			}
		}
	}
}
