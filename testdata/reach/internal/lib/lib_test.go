package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested()+OnlyTestedConst != 5 {
		t.Fatal("planted values changed")
	}
}
