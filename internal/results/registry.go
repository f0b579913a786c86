package results

import (
	"runtime"
	"slices"
	"sync"
	"weak"
)

// recentHandles is how many of the most recently created or opened handles a
// store pins. Submit, finish, read back — what posctl, the API and a campaign
// followed by its evaluation do — reopens an experiment moments after its
// writer let go of it; the pin keeps that reopen on the in-memory manifest
// instead of a manifest decode and two directory reads. It bounds what an
// idle store holds: this many manifests, however long the controller runs.
const recentHandles = 64

// registry is a store's table of live experiment handles by "user/name/id".
// It is what makes one handle the single writer of its manifest: every
// consumer sharing the store gets the same *Experiment, so a reader opened
// while a writer still has runs staged sees the writer's in-memory state,
// not a stale disk scan.
//
// The table holds handles weakly. A handle stays registered exactly as long
// as something can still use it — a caller holding the pointer, the unsynced
// set (a handle with writes Sync has not yet put on disk), or the recent ring
// below — and a cleanup drops its key once the collector has taken it. A
// later open then loads the manifest the last Sync left under .posindex. So
// the store's memory follows the experiments in use, not every experiment it
// has ever seen.
type registry struct {
	mu     sync.Mutex
	live   map[string]weak.Pointer[Experiment]
	recent [recentHandles]*Experiment // strong; overwritten round-robin
	next   int
	// unsynced holds every handle with staged runs or a dirty manifest,
	// strongly: dropped, it would take them with it, and the next open
	// would find a manifest older than the handle's writes — one the
	// one-readdir staleness probe cannot always tell from a current one.
	unsynced map[*Experiment]struct{}
}

// hold adds e to the unsynced set, or, with held false, takes it out.
func (r *registry) hold(e *Experiment, held bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !held {
		delete(r.unsynced, e)
		return
	}
	if r.unsynced == nil {
		r.unsynced = make(map[*Experiment]struct{})
	}
	r.unsynced[e] = struct{}{}
}

// handleKey is an experiment's key in the registry.
func handleKey(user, name, id string) string { return user + "/" + name + "/" + id }

// pin puts e into the recent ring unless it is there already. Caller holds
// r.mu.
func (r *registry) pin(e *Experiment) {
	if slices.Contains(r.recent[:], e) {
		return
	}
	r.recent[r.next] = e
	r.next = (r.next + 1) % len(r.recent)
}

// liveHandle returns the handle registered under key, or nil.
func (s *Store) liveHandle(key string) *Experiment {
	r := &s.handles
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.live[key].Value()
	if e != nil {
		r.pin(e)
	}
	return e
}

// register makes e the handle for key and returns it — unless replace is
// false and a live handle is registered already (a concurrent open got
// there first), which is returned instead.
func (s *Store) register(key string, e *Experiment, replace bool) *Experiment {
	r := &s.handles
	r.mu.Lock()
	defer r.mu.Unlock()
	if !replace {
		if prior := r.live[key].Value(); prior != nil {
			r.pin(prior)
			return prior
		}
	}
	if r.live == nil {
		r.live = make(map[string]weak.Pointer[Experiment])
	}
	ref := weak.Make(e)
	r.live[key] = ref
	r.pin(e)
	openHandles.Inc()
	runtime.AddCleanup(e, unregister, collected{store: weak.Make(s), key: key, handle: ref})
	return e
}

// collected is what a handle's cleanup knows about it. The store is held
// weakly on purpose: the runtime keeps cleanup arguments alive, the store's
// recent ring points at its handles, so a strong reference here would make
// every handle reachable from its own cleanup and nothing — handle or store —
// would ever be freed.
type collected struct {
	store  weak.Pointer[Store]
	key    string
	handle weak.Pointer[Experiment]
}

// unregister runs after the collector has taken a handle. The key is dropped
// only while it still names that handle; a newer one may have been registered
// under it since.
func unregister(c collected) {
	openHandles.Dec()
	s := c.store.Value()
	if s == nil {
		return
	}
	r := &s.handles
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live[c.key] == c.handle {
		delete(r.live, c.key)
	}
}
