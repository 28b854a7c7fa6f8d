package lib

import "testing"

func TestLive(t *testing.T) {
	if Live() != Oracle() || TestOnly() != 2 {
		t.Fatal("lib")
	}
}
