package classad

import (
	"fmt"
	"strconv"
)

// Expr is a parsed ClassAd expression.
type Expr interface {
	// Eval evaluates the expression in an environment. Env is passed by
	// value: it is three words, and a pointer parameter would force a heap
	// allocation at every attribute dereference (the call is through an
	// interface, so escape analysis must assume the pointee escapes).
	Eval(env Env) Value
	// String renders the expression in parseable ClassAd syntax.
	String() string
}

// Env supplies attribute bindings during evaluation. My is the ad the
// expression belongs to; Target is the candidate ad on the other side of the
// match. An unscoped attribute reference resolves first in My, then in
// Target (HTCondor's resolution order during matchmaking).
type Env struct {
	My     *Ad
	Target *Ad
	// depth guards against circular attribute references
	// (e.g. A = B; B = A), which would otherwise recurse forever.
	depth int
}

const maxEvalDepth = 64

// --- AST node types ---

type litExpr struct{ v Value }

func (e litExpr) Eval(Env) Value { return e.v }
func (e litExpr) String() string { return e.v.String() }

// attrExpr is an attribute reference, optionally scoped ("", "my", "target").
type attrExpr struct {
	scope string // "", "my", or "target" (normalized lowercase)
	name  string // original spelling, matched case-insensitively
	canon string // canonical (interned lowercase) spelling, fixed at parse
}

func (e attrExpr) Eval(env Env) Value {
	if env.depth >= maxEvalDepth {
		return ErrorValue("attribute reference cycle involving " + e.name)
	}
	// The binding evaluates in its owning ad's scope, with the other ad as
	// its TARGET.
	my, other := env.My, env.Target
	var s *slot
	switch e.scope {
	case "my":
		s = my.find(e.canon)
	case "target":
		my, other = other, my
		s = my.find(e.canon)
	default:
		if s = my.find(e.canon); s == nil {
			my, other = other, my
			s = my.find(e.canon)
		}
	}
	switch {
	case s == nil:
		return Undefined()
	case s.expr == nil:
		return s.value()
	}
	return s.expr.Eval(Env{My: my, Target: other, depth: env.depth + 1})
}

func (e attrExpr) String() string {
	switch e.scope {
	case "my":
		return "MY." + e.name
	case "target":
		return "TARGET." + e.name
	}
	return e.name
}

type unaryExpr struct {
	op string
	x  Expr
}

func (e unaryExpr) Eval(env Env) Value {
	v := e.x.Eval(env)
	switch e.op {
	case "!":
		return not(v)
	case "-":
		return neg(v)
	}
	return ErrorValue("unknown unary operator " + e.op)
}

func (e unaryExpr) String() string { return e.op + parenthesize(e.x) }

type binaryExpr struct {
	op   string
	x, y Expr
}

func (e binaryExpr) Eval(env Env) Value {
	switch e.op {
	case "&&":
		return and(e.x.Eval(env), e.y.Eval(env))
	case "||":
		return or(e.x.Eval(env), e.y.Eval(env))
	case "+", "-", "*", "/", "%":
		return arith(e.op, e.x.Eval(env), e.y.Eval(env))
	case "==", "!=", "<", "<=", ">", ">=":
		return compare(e.op, e.x.Eval(env), e.y.Eval(env))
	}
	return ErrorValue("unknown operator " + e.op)
}

func (e binaryExpr) String() string {
	return parenthesize(e.x) + " " + e.op + " " + parenthesize(e.y)
}

func parenthesize(e Expr) string {
	if _, ok := e.(binaryExpr); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// --- Parser ---

// Parse parses a ClassAd expression.
func Parse(src string) (Expr, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("classad: unexpected %s after expression (offset %d)", p.tok, p.tok.pos)
	}
	return e, nil
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expectOp(op string) error {
	if p.tok.kind != tokOp || p.tok.text != op {
		return fmt.Errorf("classad: expected %q, found %s (offset %d)", op, p.tok, p.tok.pos)
	}
	return p.advance()
}

func (p *parser) atOp(ops ...string) (string, bool) {
	if p.tok.kind != tokOp {
		return "", false
	}
	for _, op := range ops {
		if p.tok.text == op {
			return op, true
		}
	}
	return "", false
}

// Grammar, lowest precedence first:
//   or     := and   ( "||" and   )*
//   and    := eq    ( "&&" eq    )*
//   eq     := rel   ( ("=="|"!=") rel )*
//   rel    := add   ( ("<"|"<="|">"|">=") add )*
//   add    := mul   ( ("+"|"-") mul )*
//   mul    := unary ( ("*"|"/"|"%") unary )*
//   unary  := ("!"|"-") unary | primary
//   primary:= literal | ident ["." ident] | "(" or ")"

func (p *parser) parseBinary(next func() (Expr, error), ops ...string) (Expr, error) {
	x, err := next()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.atOp(ops...)
		if !ok {
			return x, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := next()
		if err != nil {
			return nil, err
		}
		x = binaryExpr{op: op, x: x, y: y}
	}
}

func (p *parser) parseOr() (Expr, error)  { return p.parseBinary(p.parseAnd, "||") }
func (p *parser) parseAnd() (Expr, error) { return p.parseBinary(p.parseEq, "&&") }
func (p *parser) parseEq() (Expr, error)  { return p.parseBinary(p.parseRel, "==", "!=") }
func (p *parser) parseRel() (Expr, error) { return p.parseBinary(p.parseAdd, "<", "<=", ">", ">=") }
func (p *parser) parseAdd() (Expr, error) { return p.parseBinary(p.parseMul, "+", "-") }
func (p *parser) parseMul() (Expr, error) { return p.parseBinary(p.parseUnary, "*", "/", "%") }

func (p *parser) parseUnary() (Expr, error) {
	if op, ok := p.atOp("!", "-"); ok {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{op: op, x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tokInt:
		i, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: bad integer %q: %v", p.tok.text, err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return litExpr{Int(i)}, nil
	case tokReal:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: bad real %q: %v", p.tok.text, err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return litExpr{Real(f)}, nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return litExpr{Str(s)}, nil
	case tokIdent:
		return p.parseIdent()
	case tokOp:
		if p.tok.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("classad: unexpected %s (offset %d)", p.tok, p.tok.pos)
}

// The keyword literals, boxed once: ASTs are immutable, so every parse of
// `true` (each MCC job's Requirements) can share one Expr.
var (
	trueExpr      Expr = litExpr{Bool(true)}
	falseExpr     Expr = litExpr{Bool(false)}
	undefinedExpr Expr = litExpr{Undefined()}
	errorExpr     Expr = litExpr{ErrorValue("")}
)

func (p *parser) parseIdent() (Expr, error) {
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if _, ok := p.atOp("("); ok {
		return p.parseCall(name)
	}
	switch canonLower(name) {
	case "true":
		return trueExpr, nil
	case "false":
		return falseExpr, nil
	case "undefined":
		return undefinedExpr, nil
	case "error":
		return errorExpr, nil
	case "my", "target":
		if _, ok := p.atOp("."); !ok {
			return nil, fmt.Errorf("classad: %s must be followed by .attribute (offset %d)", name, p.tok.pos)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("classad: expected attribute name after %s., found %s", name, p.tok)
		}
		attr := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return attrExpr{scope: canonLower(name), name: attr, canon: canonLower(attr)}, nil
	}
	return attrExpr{name: name, canon: canonLower(name)}, nil
}

// parseCall parses a built-in function application: name(arg, arg, ...).
// The opening parenthesis is the current token. Unknown functions parse
// fine and evaluate to error, matching Condor's runtime resolution.
func (p *parser) parseCall(name string) (Expr, error) {
	if err := p.advance(); err != nil { // consume "("
		return nil, err
	}
	var args []Expr
	if _, ok := p.atOp(")"); !ok {
		for {
			arg, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
			if _, ok := p.atOp(","); !ok {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return callExpr{name: name, args: args}, nil
}
