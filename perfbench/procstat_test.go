package main

import (
	"os"
	"strconv"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		want       time.Duration
	}{
		{"plain", "4242 (ptrack-serve) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 37 0 0 20 0 9 0 100 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0",
			287 * clockTick},
		{"spaces-and-parens", "17 (my (weird) prog) ) R 1 17 17 0 -1 0 0 0 0 0 7 3 0 0 20 0 1 0 5 0 0",
			10 * clockTick},
		{"empty-comm", "9 () S 1 9 9 0 -1 0 0 0 0 0 1 0 0 0 20 0 1 0 5 0 0", clockTick},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseStatCPU(tc.line)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
	for _, bad := range []string{"", "12 prog S 1", "12 (x) S 1 2 3", "12 (x) S 1 2 3 4 5 6 7 8 9 10 x 3 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q): want error", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tptrack-serve\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	got, err := parseStatusHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 20480<<10 {
		t.Fatalf("got %d, want %d", got, 20480<<10)
	}
	if _, err := parseStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("missing VmHWM: want error")
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	pid := strconv.Itoa(os.Getpid())
	if _, err := procCPU(pid); err != nil {
		t.Fatal(err)
	}
	if hwm, err := procHWM(pid); err != nil || hwm <= 0 {
		t.Fatalf("hwm=%d err=%v", hwm, err)
	}
}
