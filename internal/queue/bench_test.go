package queue

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pos/internal/calendar"
	"pos/internal/eventlog"
)

// writeHistory journals n campaigns that ran to completion under dir, as a
// controller that has been up for a long time leaves them: ids 1..n, two
// tenants, submit + admit + done each.
func writeHistory(tb testing.TB, dir string, n int) {
	tb.Helper()
	jl, err := eventlog.OpenJournal(dir, 0)
	if err != nil {
		tb.Fatal(err)
	}
	at := time.Date(2021, 10, 12, 11, 20, 32, 0, time.UTC)
	for id := 1; id <= n; id++ {
		sub := Submission{ID: id, User: fmt.Sprintf("tenant%d", id%2), Name: "past", Nodes: []string{"n1"}, Minutes: 1, Submitted: at}
		for _, ev := range []eventlog.Event{submitEvent(sub), transition(id, StateRunning, at, ""), transition(id, StateDone, at, "")} {
			if err := appendNext(jl, ev); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := jl.Close(); err != nil {
		tb.Fatal(err)
	}
}

// holdNode keeps n1 out of the queue's reach, so submissions stay queued.
func holdNode(tb testing.TB, cal *calendar.Calendar) calendar.Allocation {
	tb.Helper()
	now := time.Now()
	alloc, err := cal.Allocate("holder", []string{"n1"}, now, now.Add(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	return alloc
}

// BenchmarkQueueAtLength prices what a tenant and the admission loop pay on a
// controller with history: eight campaigns wait on a held node behind 0, 10 k
// or 100 k finished ones, and each iteration submits a ninth, polls it, runs
// one admission pass (every head conflicts) and withdraws it. Submit, Get and
// the pass scan the live queue only, so their columns should read the same at
// every length; open_ms, the journal replay, is the one cost that follows
// history until the journal is compacted.
func BenchmarkQueueAtLength(b *testing.B) {
	for _, history := range []int{0, 10_000, 100_000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			dir := b.TempDir()
			writeHistory(b, dir, history)
			cal := calendar.New([]string{"n1"})
			holdNode(b, cal)
			start := time.Now()
			c, err := Open(Config{
				Dir:           dir,
				Calendar:      cal,
				Launch:        func(context.Context, Submission, *eventlog.Pipeline) error { return nil },
				SweepInterval: time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			openTime := time.Since(start)
			defer c.Close()
			waiting := Submission{Nodes: []string{"n1"}, Minutes: 1}
			for i := 0; i < 8; i++ {
				waiting.User = fmt.Sprintf("tenant%d", i%2)
				if _, err := c.Submit(waiting); err != nil {
					b.Fatal(err)
				}
			}

			var submit, get, pass time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				st, err := c.Submit(waiting)
				t1 := time.Now()
				if err != nil {
					b.Fatal(err)
				}
				if st, err = c.Get(st.ID); err != nil || st.Position != 9 {
					b.Fatalf("Get = %+v, %v", st, err)
				}
				t2 := time.Now()
				c.pass()
				t3 := time.Now()
				if _, err := c.Cancel("", st.ID); err != nil {
					b.Fatal(err)
				}
				submit, get, pass = submit+t1.Sub(t0), get+t2.Sub(t1), pass+t3.Sub(t2)
			}
			b.StopTimer()
			perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
			b.ReportMetric(perOp(submit), "submit_ns")
			b.ReportMetric(perOp(get), "get_ns")
			b.ReportMetric(perOp(pass), "pass_ns")
			b.ReportMetric(float64(openTime.Microseconds())/1000, "open_ms")
		})
	}
}
