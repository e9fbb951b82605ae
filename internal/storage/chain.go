package storage

import "sync"

// version is one node of a version chain — THE multi-version structure
// of the storage layer: every atom, partner list and index posting is the
// head of a chain of versions, each stamped with the commit timestamp
// that installed it. dead marks a version that holds nothing (an atom's
// tombstone, an emptied list). Nodes are immutable once linked — a write
// pushes a new head — except for prev, which truncate severs under the
// owning store's write latch; a reader that resolved a version may keep
// using its value without holding any lock.
type version[T any] struct {
	val  T
	ts   uint64
	dead bool
	prev *version[T]
}

// at resolves the chain against a read timestamp: the value of the newest
// version committed at or before ts, ok=false when there is none or it is
// dead. A nil chain resolves to nothing.
func (v *version[T]) at(ts uint64) (val T, ok bool) {
	for ; v != nil; v = v.prev {
		if v.ts <= ts {
			return v.val, !v.dead
		}
	}
	return val, false
}

// len counts the chain's version nodes.
func (v *version[T]) len() int {
	n := 0
	for ; v != nil; v = v.prev {
		n++
	}
	return n
}

// chains is a keyed set of version chains: key → newest version. The
// owning store's latch guards the map and every prev pointer.
type chains[K comparable, T any] map[K]*version[T]

// head returns the newest value under k — including one a mid-flight
// commit installed but has not published; the apply path reads it (a
// commit's candidate timestamp is newer than every head).
func (m chains[K, T]) head(k K) (T, bool) {
	if v := m[k]; v != nil {
		return v.val, !v.dead
	}
	var zero T
	return zero, false
}

// push installs a new head under k at commit timestamp ts and returns the
// head it replaced (nil for a new key) — the argument pop undoes it with.
func (m chains[K, T]) push(k K, val T, ts uint64, dead bool) (old *version[T]) {
	old = m[k]
	m[k] = &version[T]{val: val, ts: ts, dead: dead, prev: old}
	return old
}

// pop undoes the latest push under k. Undos run in reverse push order
// under the commit mutex, so the head is the version that push installed.
func (m chains[K, T]) pop(k K, old *version[T]) {
	if old == nil {
		delete(m, k)
	} else {
		m[k] = old
	}
}

// pressure reports the set's version-chain pressure: number of chains,
// total version nodes and the longest chain.
func (m chains[K, T]) pressure() (n, nodes, maxLen int) {
	for _, head := range m {
		l := head.len()
		nodes += l
		maxLen = max(maxLen, l)
	}
	return len(m), nodes, maxLen
}

// truncate cuts every chain below the horizon: the newest version at or
// below it becomes the chain's tail (no reader at or above the horizon can
// look past it), and a key whose whole remaining chain is that one dead
// version is removed outright. It returns the version nodes reclaimed and
// the keys removed.
func (m chains[K, T]) truncate(horizon uint64) (reclaimed, dropped int) {
	for k, head := range m {
		anchor := head
		for anchor != nil && anchor.ts > horizon {
			anchor = anchor.prev
		}
		if anchor == nil {
			continue
		}
		reclaimed += anchor.prev.len()
		anchor.prev = nil
		if anchor == head && anchor.dead {
			delete(m, k)
			reclaimed++
			dropped++
		}
	}
	return reclaimed, dropped
}

// chainSet is chains[K, T] with the type parameters erased — what the
// database's one walk over every store's chains needs of them.
type chainSet interface {
	pressure() (n, nodes, maxLen int)
	truncate(horizon uint64) (reclaimed, dropped int)
}

// store is what that walk sees of a Container, LinkStore or Index: the
// latch guarding its chains, the chain sets themselves, and swept, which
// runs under the write latch after truncate removed keys so the store can
// drop whatever it keeps beside the chains about them.
type store interface {
	chainSets() (*sync.RWMutex, []chainSet)
	swept()
}
