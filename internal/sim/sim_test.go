package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-break order = %v, want ascending", order)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func(now Time) {
		e.After(50, func(now Time) { fired = now })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 150 {
		t.Errorf("fired at %v, want 150", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Time) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduling in the past")
		}
	}()
	e.At(50, func(Time) {})
}

func TestEngineNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil handler")
		}
	}()
	e.At(1, nil)
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func(Time) { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	id := e.At(10, func(Time) {})
	e.Step()
	if e.Cancel(id) {
		t.Error("Cancel returned true for fired event")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func(Time) {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("executed %d events, want 3", count)
	}
	// The engine resumes after a stop.
	if err := e.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if count != 10 {
		t.Errorf("executed %d events total, want 10", count)
	}
}

func TestEngineRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := NewEngine()
	e.At(5, func(Time) {})
	e.At(500, func(Time) {})
	if err := e.RunUntil(100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
	if e.Len() != 1 {
		t.Errorf("pending = %d, want 1", e.Len())
	}
	// Empty queue: clock still advances to deadline.
	e2 := NewEngine()
	if err := e2.RunUntil(42); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e2.Now() != 42 {
		t.Errorf("Now = %v, want 42", e2.Now())
	}
}

func TestEngineReentrantRunFails(t *testing.T) {
	e := NewEngine()
	var inner error
	e.At(1, func(Time) { inner = e.Run() })
	if err := e.Run(); err != nil {
		t.Fatalf("outer Run: %v", err)
	}
	if inner == nil {
		t.Fatal("re-entrant Run succeeded, want error")
	}
}

func TestEngineReset(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time) {})
	e.Step()
	e.At(20, func(Time) {})
	e.Reset()
	if e.Now() != 0 || e.Len() != 0 || e.Steps() != 0 {
		t.Errorf("after Reset: now=%v len=%d steps=%d, want zeros", e.Now(), e.Len(), e.Steps())
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(2 * Second)
	if tm.Seconds() != 2 {
		t.Errorf("Seconds = %v, want 2", tm.Seconds())
	}
	if d := tm.Sub(Time(Second)); d != Second {
		t.Errorf("Sub = %v, want 1s", d)
	}
	if s := Time(1500 * Millisecond).String(); s != "1.5s" {
		t.Errorf("String = %q, want 1.5s", s)
	}
}

// Property: events always fire in non-decreasing timestamp order, regardless
// of insertion order.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(stamps []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			e.At(Time(s), func(now Time) { fired = append(fired, now) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(stamps) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a subset of events fires exactly the complement.
func TestEngineCancelProperty(t *testing.T) {
	prop := func(stamps []uint16, cancelMask []bool) bool {
		e := NewEngine()
		fired := make(map[int]bool)
		ids := make([]EventID, len(stamps))
		for i, s := range stamps {
			i := i
			ids[i] = e.At(Time(s), func(Time) { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range stamps {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(ids[i])
				cancelled[i] = true
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := range stamps {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandNormFloat64Moments(t *testing.T) {
	r := NewRand(99)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 100; j++ {
			e.At(Time(j), func(Time) {})
		}
		_ = e.Run()
	}
}
