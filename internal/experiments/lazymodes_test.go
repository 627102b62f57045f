package experiments

import (
	"reflect"
	"sync"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/stats"
	"vasppower/internal/workloads"
)

// readModes reads every series' modes and high mode of jp, in a fixed
// order, and returns where each series' modes live and its high mode.
func readModes(jp core.JobProfile) (ptrs []uintptr, highs []stats.Mode) {
	for _, p := range append([]core.Profile{jp.NodeTotal, jp.CPU, jp.Mem, jp.GPUSum}, jp.GPUs...) {
		high, _ := p.HighMode()
		ptrs = append(ptrs, reflect.ValueOf(p.Modes()).Pointer())
		highs = append(highs, high)
	}
	return ptrs, highs
}

// TestCachedProfileModesComputedOnce: copies of one memo-cached
// profile share its modes. 16 goroutines read every series' high mode
// of their own copy at once; all of them see one result per series
// (the same backing array, so no second KDE ran), and a later read of
// every mode allocates nothing.
func TestCachedProfileModesComputedOnce(t *testing.T) {
	ResetCache()
	cfg := quickCfg()
	b, _ := workloads.ByName("PdO2")
	jp, err := measure(cfg, b, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	ptrs := make([][]uintptr, readers)
	highs := make([][]stats.Mode, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cp, err := measure(cfg, b, 1, 1, 0)
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			ptrs[r], highs[r] = readModes(cp)
		}(r)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for r := 1; r < readers; r++ {
		if !reflect.DeepEqual(ptrs[r], ptrs[0]) || !reflect.DeepEqual(highs[r], highs[0]) {
			t.Fatalf("reader %d saw other modes than reader 0: %v %v vs %v %v", r, ptrs[r], highs[r], ptrs[0], highs[0])
		}
	}
	for i, p := range ptrs[0] {
		if p == 0 {
			t.Fatalf("series %d has no modes", i)
		}
	}
	if again, _ := readModes(jp); !reflect.DeepEqual(again, ptrs[0]) {
		t.Fatal("the cached profile does not share its copies' modes")
	}
	read := func() {
		jp.NodeTotal.HighMode()
		jp.CPU.HighMode()
		jp.Mem.HighMode()
		jp.GPUSum.HighMode()
		for _, g := range jp.GPUs {
			g.HighMode()
		}
	}
	if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
		t.Fatalf("reading filled modes allocates %v times", allocs)
	}
}
