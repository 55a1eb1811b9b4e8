package main

import (
	"errors"
	"testing"
	"time"
)

func TestScheduleIsFixedAndEven(t *testing.T) {
	due := Schedule(5, 1000)
	for i, d := range due {
		if want := time.Duration(i) * time.Millisecond; d != want {
			t.Fatalf("due[%d] = %v, want %v", i, d, want)
		}
	}
}

func TestPaceNeverSendsEarly(t *testing.T) {
	due := Schedule(20, 2000) // one send every 500µs
	idx := make([]int, len(due))
	for i := range idx {
		idx[i] = i
	}
	late := make([]time.Duration, len(due))
	start := time.Now()
	sent := make([]time.Time, len(due))
	if err := Pace(start, due, idx, late, func(i int) error {
		sent[i] = time.Now()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range due {
		if early := start.Add(due[i]).Sub(sent[i]); early > 0 {
			t.Fatalf("send %d went %v early", i, early)
		}
		if late[i] < 0 {
			t.Fatalf("late[%d] = %v is negative", i, late[i])
		}
	}
}

// A stall delays later sends but does not move their due times: the
// lateness of the sends behind it shows the stall.
func TestPaceChargesStallToLaterSends(t *testing.T) {
	due := Schedule(4, 1000)
	idx := []int{0, 1, 2, 3}
	late := make([]time.Duration, 4)
	err := Pace(time.Now(), due, idx, late, func(i int) error {
		if i == 1 {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if late[2] < 15*time.Millisecond || late[3] < 14*time.Millisecond {
		t.Fatalf("sends after the stall report lateness %v and %v, want >= ~18ms and ~17ms", late[2], late[3])
	}
}

func TestPaceStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Pace(time.Now(), Schedule(3, 1e6), []int{0, 1, 2}, make([]time.Duration, 3), func(i int) error {
		calls++
		if i == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("err=%v after %d calls, want boom after 2", err, calls)
	}
}

// A closed-loop sender whose window never frees fails instead of
// hanging: on a lost connection at once, otherwise after the timeout.
func TestWaitSlotFailsInsteadOfHanging(t *testing.T) {
	slots := make(chan struct{}, 1)
	s := &submitter{done: make(chan struct{})}
	if err := waitSlot(slots, s, time.Second); err != nil {
		t.Fatalf("free slot: %v", err)
	}
	if err := waitSlot(slots, s, 10*time.Millisecond); err == nil {
		t.Fatal("full window with no acks: want a timeout error")
	}
	s.err = errors.New("connection reset")
	close(s.done)
	start := time.Now()
	if err := waitSlot(slots, s, time.Minute); err == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("lost connection: err %v after %v", err, time.Since(start))
	}
}
