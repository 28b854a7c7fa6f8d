package fixture

import "sort"

type pool struct {
	roots []string
	other []string
}

// cleanCollectField collects into a struct field and sorts that field
// before anything consumes it: the NewPool signature-roots shape.
func (p *pool) cleanCollectField(set map[string]bool) {
	for r := range set {
		p.roots = append(p.roots, r)
	}
	sort.Strings(p.roots)
}

// cleanKeyedOpAssign scales each slot by a loop-invariant total; each
// iteration touches only its own key.
func cleanKeyedOpAssign(m map[string]float64, total float64) {
	for l := range m {
		m[l] /= total
	}
}

// flaggedCollectFieldUnsorted collects into a field and never sorts it.
func (p *pool) flaggedCollectFieldUnsorted(set map[string]bool) {
	for r := range set {
		p.roots = append(p.roots, r)
	}
}

// flaggedCollectFieldSortsOther sorts a different field than the one it
// collected into.
func (p *pool) flaggedCollectFieldSortsOther(set map[string]bool) {
	for r := range set {
		p.roots = append(p.roots, r)
	}
	sort.Strings(p.other)
}

// flaggedProduct multiplies a float accumulator: float products round
// differently in different orders.
func flaggedProduct(m map[string]float64) float64 {
	prod := 1.0
	for _, v := range m {
		prod *= v
	}
	return prod
}

// flaggedOpAssignOtherSlot divides one fixed slot by every value, so the
// rounding of the result depends on the visit order.
func flaggedOpAssignOtherSlot(m map[string]float64, out map[string]float64) {
	for _, v := range m {
		out["all"] /= v
	}
}
