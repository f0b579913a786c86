// Package calendar implements the testbed's allocation calendar. pos runs as
// a multi-user facility: experiment hosts are shared between researchers by
// temporal separation. An allocation reserves a set of nodes for one user
// over a time interval; the calendar refuses any reservation that would let
// two experiments touch the same node at the same time — using a node in
// more than one experiment simultaneously is prohibited by design (Sec. 4.4).
package calendar

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Allocation is one confirmed reservation.
type Allocation struct {
	// ID is assigned by the calendar.
	ID int
	// User owns the reservation.
	User string
	// Nodes are the reserved node names.
	Nodes []string
	// Start and End bound the reservation (half-open [Start, End)).
	Start, End time.Time
}

// Overlaps reports whether the allocation's interval intersects [start,end).
func (a Allocation) Overlaps(start, end time.Time) bool {
	return a.Start.Before(end) && start.Before(a.End)
}

// Conflict errors.
var (
	ErrConflict     = errors.New("calendar: node already allocated in that interval")
	ErrUnknownNode  = errors.New("calendar: unknown node")
	ErrBadInterval  = errors.New("calendar: end must be after start")
	ErrNoNodes      = errors.New("calendar: allocation needs at least one node")
	ErrNotFound     = errors.New("calendar: allocation not found")
	ErrWrongUser    = errors.New("calendar: allocation belongs to another user")
	ErrDuplicateReq = errors.New("calendar: duplicate node in request")
)

// Calendar tracks allocations for a fixed set of testbed nodes.
type Calendar struct {
	mu     sync.Mutex
	nodes  map[string]bool
	allocs map[int]Allocation
	nextID int
}

// New returns a calendar managing the given node names.
func New(nodes []string) *Calendar {
	c := &Calendar{
		nodes:  make(map[string]bool, len(nodes)),
		allocs: make(map[int]Allocation),
		nextID: 1,
	}
	for _, n := range nodes {
		c.nodes[n] = true
	}
	return c
}

// AddNode registers an additional node with the calendar.
func (c *Calendar) AddNode(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[name] = true
}

// Nodes lists managed node names, sorted.
func (c *Calendar) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Allocate reserves nodes for user over [start, end). It fails atomically:
// either every node is reserved or none is.
func (c *Calendar) Allocate(user string, nodes []string, start, end time.Time) (Allocation, error) {
	if !end.After(start) {
		return Allocation{}, ErrBadInterval
	}
	if len(nodes) == 0 {
		return Allocation{}, ErrNoNodes
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			return Allocation{}, fmt.Errorf("%w: %s", ErrDuplicateReq, n)
		}
		seen[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		if !c.nodes[n] {
			return Allocation{}, fmt.Errorf("%w: %s", ErrUnknownNode, n)
		}
	}
	for _, a := range c.allocs {
		if !a.Overlaps(start, end) {
			continue
		}
		for _, n := range nodes {
			for _, held := range a.Nodes {
				if n == held {
					return Allocation{}, fmt.Errorf("%w: %s held by %s (#%d) until %s",
						ErrConflict, n, a.User, a.ID, a.End.Format(time.RFC3339))
				}
			}
		}
	}
	alloc := Allocation{
		ID:    c.nextID,
		User:  user,
		Nodes: append([]string(nil), nodes...),
		Start: start,
		End:   end,
	}
	c.nextID++
	c.allocs[alloc.ID] = alloc
	return alloc, nil
}

// Release frees an allocation early. Only the owning user may release it.
func (c *Calendar) Release(user string, id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.allocs[id]
	if !ok {
		return ErrNotFound
	}
	if a.User != user {
		return fmt.Errorf("%w: %s", ErrWrongUser, a.User)
	}
	delete(c.allocs, id)
	return nil
}

// Active returns allocations overlapping the instant at, sorted by ID.
func (c *Calendar) Active(at time.Time) []Allocation {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Allocation
	for _, a := range c.allocs {
		if a.Overlaps(at, at.Add(time.Nanosecond)) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Size reports how many allocations the calendar currently holds — including
// ones already ended but not yet swept by Expire. Every Allocate scans this
// many reservations, so Size is the regression signal for expiry leaks.
func (c *Calendar) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.allocs)
}

// Expire drops allocations that ended at or before now.
func (c *Calendar) Expire(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, a := range c.allocs {
		if !a.End.After(now) {
			delete(c.allocs, id)
		}
	}
}
