package main

import (
	"strings"
	"testing"
	"time"
)

func TestLoadShapeRules(t *testing.T) {
	ok := loadShape{nproc: 2, senders: 2, pushConns: 2, watched: 16, lateP99: time.Millisecond}
	if err := ok.check(); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*loadShape)
		want string
	}{
		{"too many senders", func(ls *loadShape) { ls.senders = 3 }, "push goroutines"},
		{"no senders", func(ls *loadShape) { ls.senders = 0 }, "push goroutines"},
		{"too many connections", func(ls *loadShape) { ls.pushConns = 3 }, "connections"},
		{"too many watched", func(ls *loadShape) { ls.watched = 17 }, "watched"},
		{"generator late", func(ls *loadShape) { ls.lateP99 = lateLimit + time.Microsecond }, "fell behind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls := ok
			tc.mut(&ls)
			err := ls.check()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestWorkloadsWithinLimits(t *testing.T) {
	for name := range workloads {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.watched > maxWatched || w.watched > w.slots {
			t.Errorf("%s: watches %d of %d sessions", name, w.watched, w.slots)
		}
	}
	if _, err := lookupWorkload("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSeedIsRequired(t *testing.T) {
	if code := run([]string{"--workload", "live-binary", "--seconds", "1"}); code != 2 {
		t.Fatalf("run without --seed exited %d, want 2", code)
	}
}
