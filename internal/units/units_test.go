package units

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTickSeconds(t *testing.T) {
	cases := []struct {
		tick Tick
		want float64
	}{
		{0, 0},
		{Second, 1},
		{2500 * Millisecond, 2.5},
		{Minute, 60},
		{Hour, 3600},
		{-Second, -1},
	}
	for _, c := range cases {
		if got := c.tick.Seconds(); got != c.want {
			t.Errorf("Tick(%d).Seconds() = %v, want %v", c.tick, got, c.want)
		}
	}
}

func TestTickDuration(t *testing.T) {
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Errorf("Duration = %v, want 2s", got)
	}
}

func TestTickString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.5s" {
		t.Errorf("String = %q, want 1.5s", got)
	}
}

func TestGB(t *testing.T) {
	if GB(8) != 8192 {
		t.Errorf("GB(8) = %d, want 8192", GB(8))
	}
	if GB(0) != 0 {
		t.Errorf("GB(0) = %d, want 0", GB(0))
	}
}

func TestMBString(t *testing.T) {
	cases := []struct {
		m    MB
		want string
	}{
		{300, "300MB"},
		{1024, "1GB"},
		{8192, "8GB"},
		{1500, "1500MB"},
		{0, "0MB"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("MB(%d).String() = %q, want %q", c.m, got, c.want)
		}
	}
}

func TestThreadsCores(t *testing.T) {
	cases := []struct {
		th   Threads
		want int
	}{
		{0, 0},
		{-4, 0},
		{1, 1},
		{4, 1},
		{5, 2},
		{60, 15},
		{120, 30},
		{180, 45},
		{240, 60},
		{241, 61},
	}
	for _, c := range cases {
		if got := c.th.Cores(); got != c.want {
			t.Errorf("Threads(%d).Cores() = %d, want %d", c.th, got, c.want)
		}
	}
}

func TestThreadsCoresProperty(t *testing.T) {
	// cores*4 always covers the thread count, and (cores-1)*4 never does.
	f := func(n uint16) bool {
		th := Threads(n % 1024)
		c := th.Cores()
		if th <= 0 {
			return c == 0
		}
		return c*4 >= int(th) && (c-1)*4 < int(th)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThreadsString(t *testing.T) {
	if got := Threads(240).String(); got != "240T" {
		t.Errorf("String = %q, want 240T", got)
	}
}
