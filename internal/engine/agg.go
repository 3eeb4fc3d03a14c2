package engine

import (
	"bytes"
	"fmt"

	"logicblox/internal/compiler"
	"logicblox/internal/ml"
	"logicblox/internal/relation"
	"logicblox/internal/tuple"
)

// aggAccum accumulates grouped aggregation state for a P2P rule
// (paper §2.2.1), keyed by the head key's AppendKey encoding. A sum over int
// values is accumulated in an int64 and wraps on overflow: two's-complement
// addition is associative, so the sum is the same in any folding order and
// equals a stored sum plus the signed delta RefoldStratum adds to it.
type aggAccum struct {
	plan   *compiler.AggPlan
	groups map[string]*aggState
	buf    []byte    // this binding's key encoding
	prev   []byte    // the previous binding's key encoding
	last   *aggState // the previous binding's group
}

type aggState struct {
	key    tuple.Tuple
	count  int
	sum    float64 // every numeric value, for avg and a sum over floats
	isum   int64   // the int values, for a sum over ints only
	allInt bool
	min    tuple.Value
	max    tuple.Value
}

func newAggAccum(plan *compiler.AggPlan) *aggAccum {
	return &aggAccum{plan: plan, groups: map[string]*aggState{}}
}

// add folds binding into key's group. key may be a reused buffer. A
// binding whose key encodes like the previous one's (the map's own
// equality) joins the previous group without a map lookup, so a plan that
// yields a group's bindings in a run reads the map once per run.
func (a *aggAccum) add(key tuple.Tuple, binding tuple.Tuple) {
	a.buf = key.AppendKey(a.buf[:0])
	st := a.last
	if st == nil || !bytes.Equal(a.buf, a.prev) {
		var ok bool
		if st, ok = a.groups[string(a.buf)]; !ok {
			st = &aggState{key: key.Clone(), allInt: true}
			a.groups[string(a.buf)] = st
		}
		a.last = st
		a.buf, a.prev = a.prev, a.buf
	}
	st.count++
	if a.plan.ArgSlot < 0 {
		return
	}
	v := binding[a.plan.ArgSlot]
	if f, ok := v.Numeric(); ok {
		st.sum += f
		if v.Kind() == tuple.KindInt {
			st.isum += v.AsInt()
		} else {
			st.allInt = false
		}
	}
	if st.count == 1 {
		st.min, st.max = v, v
		return
	}
	if tuple.Less(v, st.min) {
		st.min = v
	}
	if tuple.Less(st.max, v) {
		st.max = v
	}
}

func (a *aggAccum) finish(headArity int) (relation.Relation, error) {
	heads := make([]tuple.Tuple, 0, len(a.groups))
	for _, st := range a.groups {
		var v tuple.Value
		switch a.plan.Func {
		case "count":
			v = tuple.Int(int64(st.count))
		case "sum", "total":
			if st.allInt {
				v = tuple.Int(st.isum)
			} else {
				v = tuple.Float(st.sum)
			}
		case "avg":
			v = tuple.Float(st.sum / float64(st.count))
		case "min":
			v = st.min
		case "max":
			v = st.max
		default:
			return relation.New(headArity), fmt.Errorf("unknown aggregation %s", a.plan.Func)
		}
		head := make(tuple.Tuple, 0, headArity)
		head = append(head, st.key...)
		heads = append(heads, append(head, v))
	}
	return relation.FromTuples(headArity, heads), nil
}

// predictAccum accumulates grouped training examples or evaluation
// feature vectors for predict P2P rules (paper §2.3.2), keyed like aggAccum.
type predictAccum struct {
	plan   *compiler.PredictPlan
	groups map[string]*predictGroup
}

type predictGroup struct {
	key      tuple.Tuple
	examples map[string]*ml.Example // learning: keyed by example identity
	features map[string]float64     // eval: one feature vector
	model    int64                  // eval: model handle
	hasModel bool
}

func newPredictAccum(plan *compiler.PredictPlan) *predictAccum {
	return &predictAccum{plan: plan, groups: map[string]*predictGroup{}}
}

// slotsKey is the AppendKey encoding of binding's values at slots.
func slotsKey(binding tuple.Tuple, slots []int) string {
	var buf []byte
	for _, s := range slots {
		buf = binding[s : s+1].AppendKey(buf)
	}
	return string(buf)
}

func (p *predictAccum) add(key tuple.Tuple, binding tuple.Tuple) error {
	ks := string(key.AppendKey(nil))
	g, ok := p.groups[ks]
	if !ok {
		g = &predictGroup{key: key.Clone(), examples: map[string]*ml.Example{}, features: map[string]float64{}}
		p.groups[ks] = g
	}
	featName := slotsKey(binding, p.plan.FeatNameSlots)
	featVal, ok := binding[p.plan.FeatureSlot].Numeric()
	if !ok {
		return fmt.Errorf("feature value %s is not numeric", binding[p.plan.FeatureSlot])
	}
	if p.plan.Func == "eval" {
		v := binding[p.plan.ValueSlot]
		if v.Kind() != tuple.KindInt {
			return fmt.Errorf("model handle %s is not an integer", v)
		}
		g.model = v.AsInt()
		g.hasModel = true
		g.features[featName] = featVal
		return nil
	}
	exKey := slotsKey(binding, p.plan.ValueKeySlots)
	ex, ok := g.examples[exKey]
	if !ok {
		ex = &ml.Example{Features: map[string]float64{}}
		g.examples[exKey] = ex
	}
	target, ok := binding[p.plan.ValueSlot].Numeric()
	if !ok {
		return fmt.Errorf("training target %s is not numeric", binding[p.plan.ValueSlot])
	}
	ex.Target = target
	ex.Features[featName] = featVal
	return nil
}

func (p *predictAccum) finish(headArity int, models *ml.Registry) (relation.Relation, error) {
	out := relation.New(headArity)
	if models == nil {
		return out, fmt.Errorf("predict rule requires a model registry")
	}
	heads := make([]tuple.Tuple, 0, len(p.groups))
	for _, g := range p.groups {
		var v tuple.Value
		switch p.plan.Func {
		case "eval":
			if !g.hasModel {
				continue
			}
			m, ok := models.Get(g.model)
			if !ok {
				return out, fmt.Errorf("unknown model handle %d", g.model)
			}
			v = tuple.Float(m.Predict(g.features))
		case "logist":
			examples := make([]ml.Example, 0, len(g.examples))
			for _, ex := range g.examples {
				examples = append(examples, *ex)
			}
			m, err := ml.TrainLogistic(examples, ml.LogisticOptions{})
			if err != nil {
				return out, err
			}
			v = tuple.Int(models.Put(m))
		case "linear":
			examples := make([]ml.Example, 0, len(g.examples))
			for _, ex := range g.examples {
				examples = append(examples, *ex)
			}
			m, err := ml.TrainLinear(examples)
			if err != nil {
				return out, err
			}
			v = tuple.Int(models.Put(m))
		default:
			return out, fmt.Errorf("unknown predict function %s", p.plan.Func)
		}
		head := make(tuple.Tuple, 0, headArity)
		head = append(head, g.key...)
		heads = append(heads, append(head, v))
	}
	return relation.FromTuples(headArity, heads), nil
}
