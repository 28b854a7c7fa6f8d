package classad

import (
	"fmt"
	"strconv"
	"strings"
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
	lookup := func(ad *Ad, searchOther *Ad) Value {
		if ad == nil {
			return Undefined()
		}
		expr, ok := ad.lookupCanon(e.canon)
		if !ok {
			return Undefined()
		}
		// Attributes evaluate in their owning ad's scope.
		child := Env{My: ad, Target: searchOther, depth: env.depth + 1}
		return expr.Eval(child)
	}
	switch e.scope {
	case "my":
		return lookup(env.My, env.Target)
	case "target":
		return lookup(env.Target, env.My)
	default:
		if env.My != nil {
			if _, ok := env.My.lookupCanon(e.canon); ok {
				return lookup(env.My, env.Target)
			}
		}
		if env.Target != nil {
			if _, ok := env.Target.lookupCanon(e.canon); ok {
				return lookup(env.Target, env.My)
			}
		}
		return Undefined()
	}
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

func (p *parser) parseIdent() (Expr, error) {
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if _, ok := p.atOp("("); ok {
		return p.parseCall(name)
	}
	switch strings.ToLower(name) {
	case "true":
		return litExpr{Bool(true)}, nil
	case "false":
		return litExpr{Bool(false)}, nil
	case "undefined":
		return litExpr{Undefined()}, nil
	case "error":
		return litExpr{ErrorValue("")}, nil
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
		return attrExpr{scope: strings.ToLower(name), name: attr, canon: canonLower(attr)}, nil
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
