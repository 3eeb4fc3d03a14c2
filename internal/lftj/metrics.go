package lftj

// Metrics counts the primitive work of leapfrog triejoin runs: iterator
// seeks, iterator nexts, and sensitivity-interval recordings. These are
// the quantities the worst-case-optimality argument (Veldhuizen, ICDT
// 2014) bounds, so they are what a profile of a slow join should show.
//
// A Metrics value uses plain (non-atomic) counters and must be owned by a
// single join run at a time; concurrent runs each use their own Metrics.
// Attach with Join.SetMetrics. A nil
// *Metrics disables counting at the cost of one pointer test per
// operation.
type Metrics struct {
	Seeks       int64 // Seek calls issued to trie iterators
	Nexts       int64 // Next calls issued to trie iterators
	SensRecords int64 // sensitivity intervals recorded
}

// SetMetrics attaches a work counter to subsequent runs of the join (nil
// detaches). The Metrics must not be shared with a concurrently running
// join.
func (j *Join) SetMetrics(m *Metrics) { j.m = m }

// Metrics returns the attached work counter, or nil.
func (j *Join) Metrics() *Metrics { return j.m }
