package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat. Linux
// exports USER_HZ = 100 to user space on every architecture.
const clockTick = 10 * time.Millisecond

// parseStatCPU returns utime+stime from one /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(line string) (time.Duration, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command name in %q", line)
	}
	// After ") ": state(3) ppid(4) … utime(14) stime(15).
	fields := strings.Fields(line[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command name, want >= 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseStatusHWM returns VmHWM (peak resident set) in bytes from the
// contents of /proc/<pid>/status.
func parseStatusHWM(status []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// procCPU reads the user+system CPU a process has used so far, "self"
// for the calling process.
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procHWM reads a process's peak resident set size in bytes.
func procHWM(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(b)
}

// cpuOf sums procCPU over pids.
func cpuOf(pids []string) (time.Duration, error) {
	var sum time.Duration
	for _, p := range pids {
		c, err := procCPU(p)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}
