// Command app is the fixture's program root.
package main

import (
	"fmt"
	"sort"

	"fixture/internal/lib"
)

type renderer interface{ Render() string }

func main() {
	var r renderer = lib.Helper{}
	var s lib.Sink = &lib.Buffer{}
	s.Write(r.Render())
	xs := []int{2, 1}
	sort.Ints(xs)
	fmt.Println(lib.Used(), lib.Level(1), xs, lib.Queue{})
}
