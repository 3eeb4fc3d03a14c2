// Package pescapeuser is the caller side of the snapshotescape fixture:
// writing through a container obtained from an exposing accessor
// corrupts every snapshot sharing the node and is flagged; reads and
// writes through fresh copies are not.
package pescapeuser

import pmap "logicblox/internal/analysis/testdata/src/pescape"

func writeThrough(m *pmap.Map) {
	in := m.Inner()
	in["k"] = 1 // want: write through a container returned by Inner
}

func writeThroughAlias(m *pmap.Map) {
	in := m.Inner()
	alias := in
	alias["k"] = 2 // want: write through a container returned by Inner
}

func writeThroughCall(m *pmap.Map) {
	m.Inner()["k"] = 3 // want: write through a container returned by Inner
}

func deleteThrough(m *pmap.Map) {
	delete(m.Chain(), "k") // want: write through a container returned by Chain
}

func incThrough(m *pmap.Map) {
	in := m.Alias()
	in["k"]++ // want: write through a container returned by Alias
}

func readOnly(m *pmap.Map) int {
	in := m.Inner()
	return in["k"]
}

func writeCopy(m *pmap.Map) {
	cp := m.Copy()
	cp["k"] = 4
}

func writeElement(m *pmap.Map) {
	t := m.Via()
	t[0] = t[1] // want: write through a container returned by Via
}

func readElement(m *pmap.Map) int {
	return len(m.Last())
}
