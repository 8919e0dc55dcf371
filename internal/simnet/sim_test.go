package simnet

import "testing"

func TestScheduleOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	for s.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
	if s.EventsFired() != 3 {
		t.Fatalf("EventsFired = %d", s.EventsFired())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := NewSim()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	for s.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events reordered: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := NewSim()
	var at Time
	s.Schedule(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	for s.Step() {
	}
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSim()
	s.Schedule(100, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.Schedule(50, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := NewSim()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	s.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	s := NewSim()
	fired := 0
	for _, at := range []Time{10, 20, 30, 40} {
		s.Schedule(at, func() { fired++ })
	}
	s.RunUntil(25)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.RunUntil(100)
	if fired != 4 || s.Now() != 100 {
		t.Fatalf("fired=%d Now=%v", fired, s.Now())
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(25, func() { fired = true })
	s.RunUntil(25)
	if !fired {
		t.Fatal("event at the RunUntil boundary did not fire")
	}
}

func TestStepEmpty(t *testing.T) {
	s := NewSim()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestSelfReschedulingEvent(t *testing.T) {
	s := NewSim()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(10, tick)
		}
	}
	s.Schedule(0, tick)
	for s.Step() {
	}
	if count != 5 || s.Now() != 40 {
		t.Fatalf("count=%d Now=%v", count, s.Now())
	}
}

func TestTimeHelpers(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Milliseconds(2) != 2*Millisecond {
		t.Fatalf("Milliseconds(2) = %v", Milliseconds(2))
	}
	if got := (2 * Second).Sec(); got != 2.0 {
		t.Fatalf("Sec = %v", got)
	}
	tm := Time(0).Add(3 * Second)
	if tm.Sec() != 3.0 {
		t.Fatalf("Add/Sec = %v", tm.Sec())
	}
	if tm.Sub(Time(Second)) != 2*Second {
		t.Fatalf("Sub = %v", tm.Sub(Time(Second)))
	}
	if (Time(1500000000)).String() != "1.500000s" {
		t.Fatalf("String = %q", Time(1500000000).String())
	}
}
