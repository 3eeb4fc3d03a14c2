// Package pmap provides persistent string-keyed maps and sets built on the
// treap substrate. The workspace keeps its meta-data (block sources) and
// its predicate contents in these structures so that branching a
// workspace is an O(1) pointer copy and diffing two versions is
// proportional to their divergence (paper §3.1).
package pmap

import (
	"strings"

	"logicblox/internal/treap"
)

func stringOps[V any]() *treap.Ops[string, V] {
	return &treap.Ops[string, V]{Compare: strings.Compare, Hash: hashString}
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Map is a persistent map from string to V. The zero Map is not usable;
// construct with NewMap.
type Map[V any] struct {
	t treap.Tree[string, V]
}

// NewMap returns an empty persistent map.
func NewMap[V any]() Map[V] {
	return Map[V]{t: treap.New(stringOps[V]())}
}

// Get returns the value bound to key.
func (m Map[V]) Get(key string) (V, bool) { return m.t.Get(key) }

// Contains reports whether key is bound.
func (m Map[V]) Contains(key string) bool { return m.t.Contains(key) }

// Set returns a map with key bound to val.
func (m Map[V]) Set(key string, val V) Map[V] { return Map[V]{t: m.t.Insert(key, val)} }

// Delete returns a map without key.
func (m Map[V]) Delete(key string) Map[V] { return Map[V]{t: m.t.Delete(key)} }

// Len returns the number of bindings.
func (m Map[V]) Len() int { return m.t.Len() }

// Range calls fn for each binding in ascending key order until fn returns
// false.
func (m Map[V]) Range(fn func(key string, val V) bool) { m.t.Ascend(fn) }

// Keys returns the keys in ascending order.
func (m Map[V]) Keys() []string { return m.t.Keys() }

// Diff reports the bindings that differ between m (old) and o (new).
func (m Map[V]) Diff(o Map[V], valEq func(a, b V) bool,
	onDel func(string, V), onIns func(string, V), onUpd func(string, V, V)) {
	m.t.DiffWith(o.t, valEq, onDel, onIns, onUpd)
}
