package calendar

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2021, 12, 7, 9, 0, 0, 0, time.UTC)

func hours(h int) time.Time { return t0.Add(time.Duration(h) * time.Hour) }

func newCal() *Calendar {
	return New([]string{"vriga", "vtartu", "vvilnius"})
}

// free reports whether every listed node is unallocated across [start,
// end): whether an allocation of them over it would be granted.
func free(c *Calendar, nodes []string, start, end time.Time) bool {
	a, err := c.Allocate("probe", nodes, start, end)
	if err != nil {
		return false
	}
	return c.Release("probe", a.ID) == nil
}

func TestAllocateAndRelease(t *testing.T) {
	c := newCal()
	a, err := c.Allocate("alice", []string{"vriga", "vtartu"}, hours(0), hours(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == 0 || a.User != "alice" || len(a.Nodes) != 2 {
		t.Errorf("alloc = %+v", a)
	}
	if err := c.Release("alice", a.ID); err != nil {
		t.Fatal(err)
	}
	if !free(c, []string{"vriga"}, hours(0), hours(3)) {
		t.Error("node not free after release")
	}
}

func TestOverlapRejected(t *testing.T) {
	c := newCal()
	if _, err := c.Allocate("alice", []string{"vriga"}, hours(0), hours(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate("bob", []string{"vriga"}, hours(2), hours(4)); !errors.Is(err, ErrConflict) {
		t.Errorf("overlapping allocation: err = %v, want conflict", err)
	}
	// Disjoint node is fine even in the same interval.
	if _, err := c.Allocate("bob", []string{"vtartu"}, hours(2), hours(4)); err != nil {
		t.Errorf("disjoint allocation rejected: %v", err)
	}
	// Back-to-back (half-open) intervals are fine.
	if _, err := c.Allocate("bob", []string{"vriga"}, hours(3), hours(5)); err != nil {
		t.Errorf("adjacent allocation rejected: %v", err)
	}
}

func TestAtomicity(t *testing.T) {
	c := newCal()
	if _, err := c.Allocate("alice", []string{"vtartu"}, hours(0), hours(3)); err != nil {
		t.Fatal(err)
	}
	// Request includes one free and one held node: nothing is reserved.
	if _, err := c.Allocate("bob", []string{"vriga", "vtartu"}, hours(1), hours(2)); err == nil {
		t.Fatal("partial-conflict allocation accepted")
	}
	if !free(c, []string{"vriga"}, hours(1), hours(2)) {
		t.Error("failed allocation leaked a reservation")
	}
}

func TestValidation(t *testing.T) {
	c := newCal()
	if _, err := c.Allocate("a", []string{"vriga"}, hours(2), hours(1)); !errors.Is(err, ErrBadInterval) {
		t.Errorf("bad interval: %v", err)
	}
	if _, err := c.Allocate("a", nil, hours(0), hours(1)); !errors.Is(err, ErrNoNodes) {
		t.Errorf("empty nodes: %v", err)
	}
	if _, err := c.Allocate("a", []string{"ghost"}, hours(0), hours(1)); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: %v", err)
	}
	if _, err := c.Allocate("a", []string{"vriga", "vriga"}, hours(0), hours(1)); !errors.Is(err, ErrDuplicateReq) {
		t.Errorf("duplicate node: %v", err)
	}
}

func TestReleaseAuthorization(t *testing.T) {
	c := newCal()
	a, _ := c.Allocate("alice", []string{"vriga"}, hours(0), hours(1))
	if err := c.Release("bob", a.ID); !errors.Is(err, ErrWrongUser) {
		t.Errorf("cross-user release: %v", err)
	}
	if err := c.Release("alice", 999); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing id: %v", err)
	}
}

func TestActive(t *testing.T) {
	c := newCal()
	c.Allocate("alice", []string{"vriga"}, hours(0), hours(2))
	c.Allocate("bob", []string{"vtartu"}, hours(1), hours(3))
	act := c.Active(hours(0).Add(90 * time.Minute))
	if len(act) != 2 {
		t.Fatalf("active = %d, want 2", len(act))
	}
	if act[0].User != "alice" || act[1].User != "bob" {
		t.Errorf("active order: %v", act)
	}
	if got := c.Active(hours(5)); len(got) != 0 {
		t.Errorf("active after end: %v", got)
	}
}

func TestExpire(t *testing.T) {
	c := newCal()
	c.Allocate("alice", []string{"vriga"}, hours(0), hours(1))
	c.Allocate("bob", []string{"vtartu"}, hours(0), hours(4))
	if c.Expire(hours(2)); c.Size() != 1 {
		t.Errorf("%d allocations left after Expire, want 1", c.Size())
	}
	if !free(c, []string{"vriga"}, hours(0), hours(1)) {
		t.Error("expired allocation still blocks")
	}
	if free(c, []string{"vtartu"}, hours(0), hours(1)) {
		t.Error("live allocation expired")
	}
}

func TestAddNode(t *testing.T) {
	c := newCal()
	c.AddNode("vnew")
	if _, err := c.Allocate("alice", []string{"vnew"}, hours(0), hours(1)); err != nil {
		t.Errorf("allocating added node: %v", err)
	}
	nodes := c.Nodes()
	if len(nodes) != 4 {
		t.Errorf("Nodes = %v", nodes)
	}
}

func TestConcurrentAllocationNoDoubleBooking(t *testing.T) {
	c := newCal()
	const workers = 32
	var wg sync.WaitGroup
	got := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, got[i] = c.Allocate("user", []string{"vriga"}, hours(0), hours(1))
		}(i)
	}
	wg.Wait()
	success := 0
	for _, err := range got {
		if err == nil {
			success++
		}
	}
	if success != 1 {
		t.Errorf("%d concurrent allocations succeeded, want exactly 1", success)
	}
}

// Property: no two accepted allocations ever share a node while overlapping
// in time, for arbitrary request sequences.
func TestNoOverlapInvariantProperty(t *testing.T) {
	type req struct {
		NodeBits uint8
		StartH   uint8
		LenH     uint8
	}
	nodeNames := []string{"vriga", "vtartu", "vvilnius"}
	prop := func(reqs []req) bool {
		c := newCal()
		var accepted []Allocation
		for _, r := range reqs {
			var nodes []string
			for i, n := range nodeNames {
				if r.NodeBits&(1<<i) != 0 {
					nodes = append(nodes, n)
				}
			}
			start := hours(int(r.StartH % 48))
			end := start.Add(time.Duration(r.LenH%8+1) * time.Hour)
			if a, err := c.Allocate("u", nodes, start, end); err == nil {
				accepted = append(accepted, a)
			}
		}
		for i := 0; i < len(accepted); i++ {
			for j := i + 1; j < len(accepted); j++ {
				a, b := accepted[i], accepted[j]
				if !a.Overlaps(b.Start, b.End) {
					continue
				}
				for _, n1 := range a.Nodes {
					for _, n2 := range b.Nodes {
						if n1 == n2 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSizeCountsEveryHeldAllocation(t *testing.T) {
	c := newCal()
	if c.Size() != 0 {
		t.Fatalf("fresh calendar Size = %d", c.Size())
	}
	c.Allocate("alice", []string{"vriga"}, hours(0), hours(1))
	c.Allocate("bob", []string{"vtartu"}, hours(0), hours(4))
	if c.Size() != 2 {
		t.Fatalf("Size = %d, want 2", c.Size())
	}
	// An ended allocation still counts until someone sweeps it — that is
	// the leak Size exists to expose.
	if c.Expire(hours(2)); c.Size() != 1 {
		t.Errorf("Size after Expire = %d, want 1", c.Size())
	}
}
