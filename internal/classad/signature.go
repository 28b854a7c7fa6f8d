package classad

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// This file supports autocluster matchmaking (condor.Pool): a canonical,
// collision-free rendering of an ad's match-relevant content, so jobs whose
// ads are equivalent for matchmaking purposes can share one Match evaluation
// per machine. Three pieces live here:
//
//   - canonLower, the allocation-free attribute-name canonicalizer the whole
//     package uses for its case-insensitive lookups (Ad.lookup previously
//     paid a strings.ToLower allocation on every probe — the single largest
//     allocation site of a full simulation run);
//   - TargetRefs, which computes the set of attributes an ad's expression
//     may read from the ad on the other side of a match;
//   - Signer, which renders a job ad's Requirements plus every
//     transitively referenced attribute into a prefix-coded byte signature,
//     and folds a Requirements that cannot read the counterpart ad into
//     the constant verdict it gives every machine.

// --- allocation-free lowercase canonicalization ---

// lowerTable is the copy-on-write intern table mapping mixed-case attribute
// spellings to their lowercase form. Attribute vocabularies are tiny and
// fixed (well-known ClassAd names plus whatever a workload generator
// invents), so the table converges after a few ads and reads are lock-free
// thereafter. Concurrent simulations (the parallel sweep drivers) share it
// safely: readers load an immutable snapshot, writers copy-and-swap.
var (
	lowerTable atomic.Pointer[map[string]string]
	lowerMu    sync.Mutex
)

// lowerTableCap bounds the intern table; a pathological caller generating
// unbounded distinct spellings degrades to per-call allocation rather than
// growing the table forever.
const lowerTableCap = 4096

// canonLower returns strings.ToLower(s) without allocating in the steady
// state: already-lowercase ASCII returns s unchanged, and known mixed-case
// spellings resolve through the intern table.
func canonLower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || ('A' <= c && c <= 'Z') {
			return lowerIntern(s)
		}
	}
	return s
}

func lowerIntern(s string) string {
	if m := lowerTable.Load(); m != nil {
		if l, ok := (*m)[s]; ok {
			return l
		}
	}
	lowerMu.Lock()
	defer lowerMu.Unlock()
	old := lowerTable.Load()
	if old != nil {
		if l, ok := (*old)[s]; ok {
			return l
		}
		if len(*old) >= lowerTableCap {
			return strings.ToLower(s)
		}
	}
	next := make(map[string]string, 16)
	if old != nil {
		for k, v := range *old { // order-insensitive copy into a fresh map
			next[k] = v
		}
	}
	l := strings.ToLower(strings.Clone(s))
	next[strings.Clone(s)] = l
	lowerTable.Store(&next)
	return l
}

// --- attribute reference walking ---

// walkRefs visits every attribute reference in e, reporting its normalized
// scope ("", "my", or "target") and lowercase name. Traversal order is the
// expression's syntactic order, so it is deterministic.
func walkRefs(e Expr, visit func(scope, name string)) {
	switch v := e.(type) {
	case attrExpr:
		visit(v.scope, canonLower(v.name))
	case unaryExpr:
		walkRefs(v.x, visit)
	case binaryExpr:
		walkRefs(v.x, visit)
		walkRefs(v.y, visit)
	case callExpr:
		for _, a := range v.args {
			walkRefs(a, visit)
		}
	}
}

// TargetRefs returns the lowercase names of every attribute that evaluating
// a's named attribute could read from the TARGET ad on the other side of a
// match, directly or through attributes of a itself (MY and unscoped
// references recurse into a's own bindings, since those expressions run in
// a's scope and may themselves mention TARGET). Unscoped references are
// included even when a binds them — MY-first resolution would shadow the
// target, so this is a superset — because a superset is always sound for
// signature grouping: it can only split equivalence classes more finely,
// never merge ads that could match differently. The result is sorted.
func (a *Ad) TargetRefs(name string) []string {
	out := map[string]bool{}
	seen := map[string]bool{}
	var visitIn func(e Expr)
	visitIn = func(e Expr) {
		walkRefs(e, func(scope, ref string) {
			if scope == "target" || scope == "" {
				out[ref] = true
			}
			if scope == "my" || scope == "" {
				if !seen[ref] {
					seen[ref] = true
					if expr, ok := a.lookup(ref); ok {
						visitIn(expr)
					}
				}
			}
		})
	}
	root := canonLower(name)
	seen[root] = true
	if expr, ok := a.lookup(root); ok {
		visitIn(expr)
	}
	names := make([]string, 0, len(out))
	for n := range out { // order-insensitive collect; sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- canonical signature rendering ---

// Signer renders match signatures on reusable buffers, so the per-job
// signature recomputation that follows a qedit is allocation-free in the
// steady state. A Signer is not safe for concurrent use; each condor.Pool
// owns one.
type Signer struct {
	seen    map[string]bool
	work    []string
	scratch []byte
}

// NewSigner returns an empty signer.
func NewSigner() *Signer {
	return &Signer{seen: map[string]bool{}}
}

// AppendSignature appends a canonical rendering of the ad's match-relevant
// content to dst and returns the extended slice. The rendering covers each
// root attribute and, transitively, every attribute an evaluation of those
// roots could read from this ad (MY and unscoped references). Two ads with
// equal signatures for the same roots are indistinguishable to Match against
// any fixed counterpart ad, because every expression either renders into the
// signature or resolves outside this ad.
//
// Each segment is prefix-coded as len(name) ":" name len(expr) ":" expr,
// with an unbound attribute rendered as length -1, so the encoding is
// injective — no choice of attribute values can make two distinct ad
// contents collide.
func (s *Signer) AppendSignature(dst []byte, ad *Ad, roots []string) []byte {
	clear(s.seen)
	s.work = s.work[:0]
	for _, r := range roots {
		s.work = append(s.work, canonLower(r))
	}
	for i := 0; i < len(s.work); i++ {
		name := s.work[i]
		if s.seen[name] {
			continue
		}
		s.seen[name] = true
		dst = strconv.AppendInt(dst, int64(len(name)), 10)
		dst = append(dst, ':')
		dst = append(dst, name...)
		expr, ok := ad.lookup(name)
		if !ok {
			dst = append(dst, "-1:"...)
			continue
		}
		s.scratch = appendExpr(s.scratch[:0], expr)
		dst = strconv.AppendInt(dst, int64(len(s.scratch)), 10)
		dst = append(dst, ':')
		dst = append(dst, s.scratch...)
		walkRefs(expr, func(scope, ref string) {
			if (scope == "" || scope == "my") && !s.seen[ref] {
				s.work = append(s.work, ref)
			}
		})
	}
	return dst
}

// --- constant Requirements folding ---

// Fold is the verdict one side's Requirements gives every counterpart of a
// match, when that verdict cannot depend on the counterpart.
type Fold uint8

const (
	// FoldNone: the verdict may depend on the counterpart ad.
	FoldNone Fold = iota
	// FoldFalse: the Requirements rejects every counterpart.
	FoldFalse
	// FoldTrue: the Requirements accepts every counterpart.
	FoldTrue
)

// Meet combines the folds of a match's two sides: a side that rejects every
// counterpart decides the match, and the match accepts every pairing only
// when both sides do.
func (f Fold) Meet(g Fold) Fold {
	switch {
	case f == FoldFalse || g == FoldFalse:
		return FoldFalse
	case f == FoldTrue && g == FoldTrue:
		return FoldTrue
	}
	return FoldNone
}

// FoldRequirements classifies ad's Requirements. When no evaluation of it
// can read the counterpart ad — no TARGET or unscoped reference in the
// expression or in any attribute of ad it reaches through MY, the closure
// TargetRefs walks — it evaluates it once and returns the verdict every
// counterpart gets: FoldTrue when it is boolean true (or unbound, which
// Match accepts), FoldFalse for false, undefined, error or a non-boolean.
// Otherwise it returns FoldNone. The walk reuses the signer's scratch, so
// it does not allocate.
//
// The verdict depends only on attributes AppendSignature renders for a root
// set containing Requirements, so ads with equal signatures fold alike.
func (s *Signer) FoldRequirements(ad *Ad) Fold {
	clear(s.seen)
	s.work = append(s.work[:0], canonRequirements)
	free := true
	for i := 0; free && i < len(s.work); i++ {
		name := s.work[i]
		if s.seen[name] {
			continue
		}
		s.seen[name] = true
		expr, ok := ad.lookupCanon(name)
		if !ok {
			continue
		}
		walkRefs(expr, func(scope, ref string) {
			if scope != "my" {
				free = false
			} else if !s.seen[ref] {
				s.work = append(s.work, ref)
			}
		})
	}
	if !free {
		return FoldNone
	}
	return foldVerdict(ad)
}

// FoldConstant classifies ad's Requirements like FoldRequirements, but folds
// only an expression that references no attribute at all. It suits an ad
// whose other attributes change after classification: a machine ad's
// advertised resource levels move with every claim.
func FoldConstant(ad *Ad) Fold {
	if expr, ok := ad.lookupCanon(canonRequirements); ok {
		refs := false
		walkRefs(expr, func(string, string) { refs = true })
		if refs {
			return FoldNone
		}
	}
	return foldVerdict(ad)
}

// foldVerdict is the Requirements verdict of an ad that reads nothing from
// its counterpart, so a nil target stands for every one.
func foldVerdict(ad *Ad) Fold {
	if requirementsHold(ad, nil) {
		return FoldTrue
	}
	return FoldFalse
}

// appendExpr renders e in the same syntax as Expr.String, appending to dst
// without intermediate string allocations.
func appendExpr(dst []byte, e Expr) []byte {
	switch v := e.(type) {
	case litExpr:
		return appendValue(dst, v.v)
	case attrExpr:
		switch v.scope {
		case "my":
			dst = append(dst, "MY."...)
		case "target":
			dst = append(dst, "TARGET."...)
		}
		return append(dst, v.name...)
	case unaryExpr:
		dst = append(dst, v.op...)
		return appendParen(dst, v.x)
	case binaryExpr:
		dst = appendParen(dst, v.x)
		dst = append(dst, ' ')
		dst = append(dst, v.op...)
		dst = append(dst, ' ')
		return appendParen(dst, v.y)
	case callExpr:
		dst = append(dst, v.name...)
		dst = append(dst, '(')
		for i, a := range v.args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendExpr(dst, a)
		}
		return append(dst, ')')
	}
	return append(dst, e.String()...)
}

func appendParen(dst []byte, e Expr) []byte {
	if _, ok := e.(binaryExpr); ok {
		dst = append(dst, '(')
		dst = appendExpr(dst, e)
		return append(dst, ')')
	}
	return appendExpr(dst, e)
}

// appendValue renders v exactly as Value.String, appending to dst.
func appendValue(dst []byte, v Value) []byte {
	switch v.kind {
	case KindUndefined:
		return append(dst, "undefined"...)
	case KindError:
		if v.s != "" {
			dst = append(dst, "error("...)
			dst = append(dst, v.s...)
			return append(dst, ')')
		}
		return append(dst, "error"...)
	case KindBool:
		if v.b {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindReal:
		if math.IsInf(v.f, 0) || math.IsNaN(v.f) {
			return append(dst, "error(non-finite real)"...)
		}
		start := len(dst)
		dst = strconv.AppendFloat(dst, v.f, 'g', -1, 64)
		for _, c := range dst[start:] {
			if c == '.' || c == 'e' || c == 'E' {
				return dst
			}
		}
		return append(dst, ".0"...)
	case KindString:
		return strconv.AppendQuote(dst, v.s)
	}
	return append(dst, "error(bad kind)"...)
}
