// Package lease is the namespace-coherence subsystem shared by the MDS
// and the SDK. Each metadata server keeps a Table of per-directory
// leases: a lease is an (ID, epoch) pair with a TTL, granted to any
// client that looks up or lists the directory and bumped on every
// mutation of the directory's direct children. There is no callback
// channel — invalidation piggybacks on ordinary RPC traffic. Every
// owner-served response carries a trailer with the current lease state
// of the directories it touched; a client whose cached epoch disagrees
// flushes that directory before trusting the response. For clients that
// go idle the TTL bounds staleness: a cache entry is never served past
// the expiry of the grant that vouched for it.
//
// Epoch rules:
//
//   - A lease ID is minted when a directory is first granted and is
//     salted per Table incarnation, so an MDS restart (or a replica
//     promotion, which builds a fresh Service) implicitly invalidates
//     every outstanding grant — the client sees an unknown ID and
//     flushes.
//   - Any create/remove/rename/setattr/insert under a leased directory
//     bumps its epoch. Un-granted directories are not tracked; there is
//     nothing cached to invalidate.
//   - Migrating a subtree away revokes the leases of every directory in
//     it. The next grant (from whichever MDS then owns it) mints a new
//     ID, which reads as an invalidation.
//
// A mutating client observes its own bump as epoch == cached+1 and may
// adopt it without flushing — that is what keeps a warm-cache Create at
// one RPC with the cache intact.
package lease

import (
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/namespace"
	"origami/internal/telemetry"
)

// DefaultTTL bounds how stale an idle client's cache may go. Active
// clients converge faster: every RPC response refreshes the epochs of
// the directories it touched.
const DefaultTTL = 2 * time.Second

// Grant is one directory's lease state as shipped to a client: the
// lease identity, its current mutation epoch, and how long the client
// may trust entries cached under it without revalidation. MapVersion
// is the partition-map version the granting MDS served: a client
// holding an older map knows the directory's owner or read replicas
// may have moved.
type Grant struct {
	Dir        namespace.Ino
	ID         uint64
	Epoch      uint64
	TTLms      uint32
	MapVersion uint64
}

// TTL returns the grant's validity window as a duration.
func (g Grant) TTL() time.Duration { return time.Duration(g.TTLms) * time.Millisecond }

// incarnation salts lease IDs so two Table lifetimes never mint the
// same ID sequence — a promoted or restarted MDS must not accidentally
// revalidate grants issued by its predecessor.
var incarnation atomic.Uint64

// Table is the per-MDS lease table. All methods are safe for
// concurrent use; the table sits on the hot path of every timed
// handler, so it does strictly O(1) work per call (expiry is lazy,
// piggybacked on re-grants).
type Table struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time
	nextID  uint64
	entries map[namespace.Ino]*tableEntry

	granted *telemetry.Counter
	bumped  *telemetry.Counter
	expired *telemetry.Counter
	active  *telemetry.Gauge
}

type tableEntry struct {
	id    uint64
	epoch uint64
	touch time.Time
}

// NewTable builds an empty lease table registering its metrics with
// reg. Each table gets a fresh ID space (see incarnation).
func NewTable(reg *telemetry.Registry, ttl time.Duration) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	salt := uint64(time.Now().UnixNano())<<8 | incarnation.Add(1)&0xff
	return &Table{
		ttl:     ttl,
		now:     time.Now,
		nextID:  salt | 1,
		entries: make(map[namespace.Ino]*tableEntry),
		granted: reg.Counter("mds.lease.granted"),
		bumped:  reg.Counter("mds.lease.bumped"),
		expired: reg.Counter("mds.lease.expired"),
		active:  reg.Gauge("lease.table.active"),
	}
}

// SetNow overrides the clock; tests use it to force expiry.
func (t *Table) SetNow(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// SetTTL changes the validity window stamped on subsequent grants.
func (t *Table) SetTTL(d time.Duration) {
	if d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ttl = d
}

// TTL reports the current grant validity window.
func (t *Table) TTL() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ttl
}

// Grant returns dir's current lease, minting one if the directory is
// untracked or its entry sat idle past the TTL. An idle-expired entry
// is safe to replace wholesale: its last grant is older than the TTL,
// so every client-side copy has already expired on its own clock.
func (t *Table) Grant(dir namespace.Ino) Grant {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	e := t.entries[dir]
	if e != nil && now.Sub(e.touch) > t.ttl {
		delete(t.entries, dir)
		t.expired.Inc()
		e = nil
	}
	if e == nil {
		t.nextID += 2654435769 // odd stride: IDs never repeat within an incarnation
		e = &tableEntry{id: t.nextID}
		t.entries[dir] = e
		t.granted.Inc()
		t.active.Set(float64(len(t.entries)))
	}
	e.touch = now
	return Grant{Dir: dir, ID: e.id, Epoch: e.epoch, TTLms: uint32(t.ttl / time.Millisecond)}
}

// Bump advances dir's epoch after a mutation of its direct children.
// Untracked directories are a no-op: no grant was ever issued, so no
// client can hold a cache entry that needs invalidating.
func (t *Table) Bump(dir namespace.Ino) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[dir]; e != nil {
		e.epoch++
		t.bumped.Inc()
	}
}

// Revoke drops dir's lease entirely. The next grant mints a new ID,
// which every caching client reads as "flush this directory".
func (t *Table) Revoke(dir namespace.Ino) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[dir]; ok {
		delete(t.entries, dir)
		t.active.Set(float64(len(t.entries)))
	}
}

// RevokeSubtree revokes the leases of every listed directory; migration
// calls it with the directory inodes of the shipped subtree so the new
// owner starts from a clean (and differently salted) lease space.
func (t *Table) RevokeSubtree(dirs []namespace.Ino) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range dirs {
		delete(t.entries, d)
	}
	t.active.Set(float64(len(t.entries)))
}

// Active reports how many directories currently hold a lease.
func (t *Table) Active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Epoch reports dir's current epoch and whether it holds a lease;
// tests use it to pin down bump/revoke behaviour.
func (t *Table) Epoch(dir namespace.Ino) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[dir]
	if e == nil {
		return 0, false
	}
	return e.epoch, true
}
