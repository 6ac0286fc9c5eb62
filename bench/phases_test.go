package main

import (
	"testing"
	"time"
)

// fakeClock advances only when told to: sleeping jumps to the wake-up
// time, and each send costs what the test says it costs.
type fakeClock struct {
	now time.Duration
}

func (c *fakeClock) Since() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

func TestPaceStampsDueTimeNotSendTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	c := &fakeClock{}
	var dues []time.Duration
	late := pace(c, 6, interval, func(i int, due time.Duration) {
		dues = append(dues, due)
		if i == 1 {
			c.now += 35 * time.Millisecond // a stall: a stolen vCPU, a slow publish
		} else {
			c.now += time.Millisecond
		}
	})
	for i, due := range dues {
		if want := time.Duration(i) * interval; due != want {
			t.Errorf("item %d stamped due %v, want %v: the schedule must not slip with the generator", i, due, want)
		}
	}
	// Item 1 starts on time at 10 ms and ends at 45 ms. Items 2, 3 and 4
	// (due 20, 30, 40) are sent back to back at 45, 46, 47 ms; item 5 (due
	// 50) is on time again.
	want := []time.Duration{0, 0, 25 * time.Millisecond, 16 * time.Millisecond, 7 * time.Millisecond, 0}
	for i := range want {
		if late[i] != want[i] {
			t.Errorf("item %d started %v late, want %v", i, late[i], want[i])
		}
	}
}
