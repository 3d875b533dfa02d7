package live_test

import (
	"testing"

	"fixture/internal/live"
)

func TestOwn(t *testing.T) {
	if live.Kept()+live.OwnTestsOnly() != 3 {
		t.Fatal("sum")
	}
	if live.Sum(live.Options{TestsOnly: 1}) != 5 {
		t.Fatal("options")
	}
}
