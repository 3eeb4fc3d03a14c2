// Package pmap is a snapshotescape-analyzer fixture (declared as one of
// the protected persistent packages): exported functions returning
// internal containers — directly, through a local alias, or through a
// call chain — are flagged; fresh copies are not, nor are stored
// elements (tuple.Tuple), handed out uncopied by contract. Unexported
// helpers feed summaries without being findings themselves.
package pmap

import "logicblox/internal/tuple"

// Map is a stand-in persistent map: items is shared by every snapshot
// that references this node; last is a stored element.
type Map struct {
	items map[string]int
	last  tuple.Tuple
}

// Last hands out the stored element: not a finding here, but a caller's
// write through it is.
func (m *Map) Last() tuple.Tuple {
	return m.last
}

// lastVia and Via return the stored element through a call chain.
func (m *Map) lastVia() tuple.Tuple {
	t := m.last
	return t
}

func (m *Map) Via() tuple.Tuple {
	return m.lastVia()
}

// New builds an empty map.
func New() *Map {
	return &Map{items: map[string]int{}}
}

// Set stores k=v into a fresh node, persistent-style.
func (m *Map) Set(k string, v int) *Map {
	out := make(map[string]int, len(m.items)+1)
	for kk, vv := range m.items {
		out[kk] = vv
	}
	out[k] = v
	return &Map{items: out}
}

// Inner hands the shared map straight to the caller.
func (m *Map) Inner() map[string]int {
	return m.items // want: exported Inner returns an internal slice/map
}

// inner is the same leak, but unexported: it only contributes a summary.
func (m *Map) inner() map[string]int {
	return m.items
}

// Chain leaks transitively through the unexported helper.
func (m *Map) Chain() map[string]int {
	return m.inner() // want: exported Chain returns an internal slice/map
}

// Alias leaks through a local variable.
func (m *Map) Alias() map[string]int {
	it := m.items
	return it // want: exported Alias returns an internal slice/map
}

// Copy builds a fresh container: safe to hand out.
func (m *Map) Copy() map[string]int {
	out := make(map[string]int, len(m.items))
	for k, v := range m.items {
		out[k] = v
	}
	return out
}

// Len reads internals without exposing them.
func (m *Map) Len() int {
	return len(m.items)
}
