// Command harness stands in for a second module, such as perfbench,
// whose roots count as reaching the first module's code.
package main

import "fixture/internal/lib"

func main() { _ = lib.OnlyHarness() }
