// Command app is the fixture's program root.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

type renderer interface{ Render() string }

func main() {
	var r renderer = lib.Helper{}
	var s lib.Sink = &lib.Buffer{}
	s.Write(r.Render())
	fmt.Println(lib.Used(), lib.Level(1))
}
