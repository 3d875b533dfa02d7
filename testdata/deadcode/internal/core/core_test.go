package core

import (
	"testing"

	"fixture/internal/live"
)

func TestRun(t *testing.T) {
	if !Run(live.Shared()) {
		t.Fatal("node a is down")
	}
}
