package sched

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// drain returns every job left in a stream (nil if none).
func drain(src JobStream) []Job {
	var jobs []Job
	for {
		j, ok := src.Next()
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

// TestSyntheticMixMatchesDrawLoop pins the mix table to the lazy draw
// loop it replaced: the same jobs, in the same order, from the same
// RNG sequence, for empty and one-job mixes, several seeds, and a draw
// table with an unresolvable entry whose draws are skipped. Pairs must
// list each drawn (benchmark, nodes) once, in first-draw order.
func TestSyntheticMixMatchesDrawLoop(t *testing.T) {
	withMissing := resolveMix([]mixEntry{
		{name: "PdO2", weight: 0.4, nodes: []int{1, 2}},
		{name: "no-such-benchmark", weight: 0.3, nodes: []int{1}},
		{name: "Si128_acfdtr", weight: 0.3, nodes: []int{2}},
	})
	for _, tc := range []struct {
		mix   []mixEntry
		n     int
		mean  float64
		seed  uint64
		skips bool // the case must skip draws
	}{
		{mixSuite, 0, 5, 1, false},
		{mixSuite, 1, 5, 1, false},
		{mixSuite, 2, 90, 2024, false},
		{mixSuite, 500, 5, 7, false},
		{mixSuite, 12000, 0.4, 2024, false}, // IDs past job9999
		{withMissing, 0, 30, 3, false},
		{withMissing, 1, 30, 9, false},
		{withMissing, 300, 30, 11, true},
	} {
		name := fmt.Sprintf("entries=%d/n=%d/seed=%d", len(tc.mix), tc.n, tc.seed)
		want := drawLoopOracle(tc.mix, tc.n, tc.mean, tc.seed)
		m := drawMix(tc.mix, tc.n, tc.mean, tc.seed)
		src := m.Stream()
		if h := src.SizeHint(); h != len(want) {
			t.Fatalf("%s: SizeHint %d, want %d", name, h, len(want))
		}
		if got := drain(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: table yields %d jobs, draw loop %d (or contents differ)", name, len(got), len(want))
		}
		if h := src.SizeHint(); h != 0 {
			t.Fatalf("%s: drained SizeHint %d", name, h)
		}
		var pairs []MixPair
		for _, j := range want {
			if p := (MixPair{Bench: j.Bench, Nodes: j.Nodes}); !slices.Contains(pairs, p) {
				pairs = append(pairs, p)
			}
		}
		if got := m.Pairs(); !slices.Equal(got, pairs) {
			t.Fatalf("%s: Pairs has %d entries, want %d in first-draw order", name, len(got), len(pairs))
		}
		if tc.skips && len(want) >= tc.n {
			t.Fatalf("%s: no draw skipped; the case needs skipped draws", name)
		}
	}
}

// TestSharedMixConcurrentPolicies pins that one mix table can feed
// concurrent simulations: three policies simulated at once over
// cursors of one SyntheticMix give exactly the Results of three runs
// over freshly drawn streams. Under -race it is also the data-race
// check of the shared table.
func TestSharedMixConcurrentPolicies(t *testing.T) {
	const n, mean, seed = 3000, 2, 2024
	policies := []Policy{NoCap{NodeTDP: 2350}, UniformCap{Watts: 200, HostWatts: 350}, DefaultProfileAware()}
	cfg := func(p Policy) SimConfig {
		return SimConfig{
			ClusterNodes: 64, BudgetW: 64 * 1100, IdleNodeW: 460,
			Policy: p, Catalog: fakeCatalog(1), JitterSeed: 5,
		}
	}
	mix := NewSyntheticMix(n, mean, seed)
	got := make([]Result, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = SimulateStream(cfg(p), mix.Stream())
		}()
	}
	wg.Wait()
	for i, p := range policies {
		if errs[i] != nil {
			t.Fatalf("%s: %v", p.Name(), errs[i])
		}
		want, err := SimulateStream(cfg(p), SyntheticJobStream(n, mean, seed))
		if err != nil {
			t.Fatalf("%s: fresh stream: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s: shared-mix result diverged from a fresh stream's", p.Name())
		}
		if got[i].Completed != n {
			t.Fatalf("%s: completed %d of %d", p.Name(), got[i].Completed, n)
		}
	}
}

// TestMixRankMatchesIDSort pins the mix's ranks against a sort: the
// jobs ordered by rank are the jobs stably sorted by ID, for sizes on
// both sides of the 4→5 and 5→6 digit ID widths (below job10000 the
// order is the identity; from there on it is a real permutation), and
// for a draw table whose skipped draws leave gaps in the IDs.
func TestMixRankMatchesIDSort(t *testing.T) {
	withMissing := resolveMix([]mixEntry{
		{name: "PdO2", weight: 0.5, nodes: []int{1, 2}},
		{name: "no-such-benchmark", weight: 0.2, nodes: []int{1}},
		{name: "Si128_acfdtr", weight: 0.3, nodes: []int{2}},
	})
	for _, tc := range []struct {
		mix []mixEntry
		n   int
	}{
		{mixSuite, 0}, {mixSuite, 1}, {mixSuite, 9999}, {mixSuite, 10000},
		{mixSuite, 10001}, {mixSuite, 100001}, {withMissing, 12000},
	} {
		m := drawMix(tc.mix, tc.n, 5, 7)
		n := len(m.jobs)
		if len(m.rank) != n {
			t.Fatalf("entries=%d/n=%d: %d ranks for %d jobs", len(tc.mix), tc.n, len(m.rank), n)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return m.id(want[a]) < m.id(want[b]) })
		got := make([]int, n)
		for i := range got {
			got[i] = -1
		}
		for i, r := range m.rank {
			if r < 0 || int(r) >= n || got[r] >= 0 {
				t.Fatalf("entries=%d/n=%d: rank %d of job %d is out of range or taken", len(tc.mix), tc.n, r, i)
			}
			got[r] = i
		}
		if !slices.Equal(got, want) {
			p := 0
			for got[p] == want[p] {
				p++
			}
			t.Fatalf("entries=%d/n=%d: position %d holds %s, the ID sort puts %s there",
				len(tc.mix), tc.n, p, m.id(got[p]), m.id(want[p]))
		}
		if !tc.mix[1].ok && n >= tc.n {
			t.Fatalf("entries=%d/n=%d: no draw skipped; the case needs gaps in the IDs", len(tc.mix), tc.n)
		}
	}
}
