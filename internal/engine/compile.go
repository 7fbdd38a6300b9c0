package engine

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/sql"
)

// CompiledExpr is an expression compiled against a fixed schema: column
// ordinals are resolved and constant subtrees folded once, so per-row
// evaluation is a closure call instead of a tree interpretation with
// string lookups. Compiled closures are safe for sequential reuse; a
// plan executes under its query's execution lock, so operators compile
// once and evaluate many windows.
type CompiledExpr func(row relation.Tuple) (relation.Value, error)

// Compile translates an expression into a CompiledExpr over the given
// schema. It is the compile-once counterpart of Eval (the reference
// interpreter in expr_ref_test.go): for every (schema, row) pair the compiled closure
// returns exactly what Eval would, including NULL propagation, error
// messages, and AND/OR short-circuiting — unresolvable columns or
// unknown functions become closures producing the error per row rather
// than compile failures, so operators over empty inputs still succeed
// exactly as the interpreter does. The returned error is reserved for
// structural impossibilities (currently none); callers may treat it as
// fatal.
func Compile(e sql.Expr, schema relation.Schema, funcs *FuncRegistry) (CompiledExpr, error) {
	c, _ := compileNode(e, schema, funcs)
	return c, nil
}

// constExpr wraps a fixed value.
func constExpr(v relation.Value) CompiledExpr {
	return func(relation.Tuple) (relation.Value, error) { return v, nil }
}

// errExpr wraps a fixed evaluation error, preserving Eval's per-row
// error semantics for expressions that can never succeed.
func errExpr(err error) CompiledExpr {
	return func(relation.Tuple) (relation.Value, error) { return relation.Null, err }
}

// fold evaluates a constant closure once and bakes the result (value or
// error) into a trivial closure.
func fold(c CompiledExpr) CompiledExpr {
	v, err := c(nil)
	if err != nil {
		return errExpr(err)
	}
	return constExpr(v)
}

// compileNode compiles one node and reports whether it is a constant
// subtree (no column references, deterministic operators only; function
// calls are never folded because UDFs may be impure). Constant subtrees
// are already folded in the returned closure.
func compileNode(e sql.Expr, schema relation.Schema, funcs *FuncRegistry) (CompiledExpr, bool) {
	switch x := e.(type) {
	case *sql.Literal:
		return constExpr(x.Value), true
	case *sql.ColumnRef:
		i, err := schema.IndexOf(x.FullName())
		if err != nil {
			return errExpr(err), false
		}
		return func(row relation.Tuple) (relation.Value, error) {
			return row[i], nil
		}, false
	case *sql.BinaryExpr:
		return compileBinary(x, schema, funcs)
	case *sql.UnaryExpr:
		in, c := compileNode(x.Expr, schema, funcs)
		switch x.Op {
		case "NOT":
			out := func(row relation.Tuple) (relation.Value, error) {
				v, err := in(row)
				if err != nil {
					return relation.Null, err
				}
				if v.IsNull() {
					return relation.Null, nil
				}
				return relation.Bool_(!v.Truthy()), nil
			}
			if c {
				return fold(out), true
			}
			return out, false
		case "-":
			out := func(row relation.Tuple) (relation.Value, error) {
				v, err := in(row)
				if err != nil {
					return relation.Null, err
				}
				switch v.Type {
				case relation.TInt:
					return relation.Int(-v.Int), nil
				case relation.TFloat:
					return relation.Float(-v.Float), nil
				case relation.TNull:
					return relation.Null, nil
				}
				return relation.Null, fmt.Errorf("engine: unary minus on %s", v.Type)
			}
			if c {
				return fold(out), true
			}
			return out, false
		}
		// Unknown unary op: Eval evaluates the operand first, then fails.
		err := fmt.Errorf("engine: unknown unary op %q", x.Op)
		return func(row relation.Tuple) (relation.Value, error) {
			if _, e := in(row); e != nil {
				return relation.Null, e
			}
			return relation.Null, err
		}, false
	case *sql.IsNullExpr:
		in, c := compileNode(x.Expr, schema, funcs)
		negate := x.Negate
		out := func(row relation.Tuple) (relation.Value, error) {
			v, err := in(row)
			if err != nil {
				return relation.Null, err
			}
			return relation.Bool_(v.IsNull() != negate), nil
		}
		if c {
			return fold(out), true
		}
		return out, false
	case *sql.InExpr:
		return compileIn(x, schema, funcs)
	case *sql.CaseExpr:
		return compileCase(x, schema, funcs)
	case *sql.FuncExpr:
		return compileFunc(x, schema, funcs)
	default:
		return errExpr(fmt.Errorf("engine: cannot evaluate %T", e)), false
	}
}

func compileIn(x *sql.InExpr, schema relation.Schema, funcs *FuncRegistry) (CompiledExpr, bool) {
	in, c := compileNode(x.Expr, schema, funcs)
	items := make([]CompiledExpr, len(x.List))
	for i, item := range x.List {
		var ic bool
		items[i], ic = compileNode(item, schema, funcs)
		c = c && ic
	}
	negate := x.Negate
	out := func(row relation.Tuple) (relation.Value, error) {
		v, err := in(row)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() {
			return relation.Null, nil
		}
		for _, item := range items {
			iv, err := item(row)
			if err != nil {
				return relation.Null, err
			}
			if relation.Equal(v, iv) {
				return relation.Bool_(!negate), nil
			}
		}
		return relation.Bool_(negate), nil
	}
	if c {
		return fold(out), true
	}
	return out, false
}

func compileCase(x *sql.CaseExpr, schema relation.Schema, funcs *FuncRegistry) (CompiledExpr, bool) {
	type when struct{ cond, then CompiledExpr }
	whens := make([]when, len(x.Whens))
	c := true
	for i, w := range x.Whens {
		cond, cc := compileNode(w.Cond, schema, funcs)
		then, tc := compileNode(w.Then, schema, funcs)
		whens[i] = when{cond, then}
		c = c && cc && tc
	}
	var els CompiledExpr
	if x.Else != nil {
		var ec bool
		els, ec = compileNode(x.Else, schema, funcs)
		c = c && ec
	}
	out := func(row relation.Tuple) (relation.Value, error) {
		for _, w := range whens {
			cv, err := w.cond(row)
			if err != nil {
				return relation.Null, err
			}
			if cv.Truthy() {
				return w.then(row)
			}
		}
		if els != nil {
			return els(row)
		}
		return relation.Null, nil
	}
	if c {
		return fold(out), true
	}
	return out, false
}

func compileFunc(x *sql.FuncExpr, schema relation.Schema, funcs *FuncRegistry) (CompiledExpr, bool) {
	// Aggregates above an aggregate plan resolve as columns named by
	// their expression text, exactly as in Eval.
	if IsAggregate(x.Name) {
		i, err := schema.IndexOf(x.String())
		if err != nil {
			return errExpr(fmt.Errorf("engine: aggregate %s outside GROUP BY context", x)), false
		}
		return func(row relation.Tuple) (relation.Value, error) {
			return row[i], nil
		}, false
	}
	if funcs == nil {
		return errExpr(fmt.Errorf("engine: no function registry for %s", x.Name)), false
	}
	f, ok := funcs.Lookup(x.Name)
	if !ok {
		return errExpr(fmt.Errorf("engine: unknown function %q", x.Name)), false
	}
	args := make([]CompiledExpr, len(x.Args))
	for i, a := range x.Args {
		args[i], _ = compileNode(a, schema, funcs)
	}
	// Never folded: registered UDFs may be impure.
	return func(row relation.Tuple) (relation.Value, error) {
		vals := make([]relation.Value, len(args))
		for i, a := range args {
			v, err := a(row)
			if err != nil {
				return relation.Null, err
			}
			vals[i] = v
		}
		return f(vals)
	}, false
}

func compileBinary(x *sql.BinaryExpr, schema relation.Schema, funcs *FuncRegistry) (CompiledExpr, bool) {
	l, lc := compileNode(x.Left, schema, funcs)
	r, rc := compileNode(x.Right, schema, funcs)
	switch x.Op {
	case "AND":
		out := func(row relation.Tuple) (relation.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relation.Null, err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return relation.Bool_(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return relation.Null, err
			}
			if !rv.IsNull() && !rv.Truthy() {
				return relation.Bool_(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return relation.Null, nil
			}
			return relation.Bool_(true), nil
		}
		if lc && rc {
			return fold(out), true
		}
		if lc {
			// A constant false left side short-circuits the whole
			// conjunction without ever touching the right side.
			if lv, err := l(nil); err == nil && !lv.IsNull() && !lv.Truthy() {
				return constExpr(relation.Bool_(false)), true
			}
		}
		return out, false
	case "OR":
		out := func(row relation.Tuple) (relation.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relation.Null, err
			}
			if !lv.IsNull() && lv.Truthy() {
				return relation.Bool_(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return relation.Null, err
			}
			if !rv.IsNull() && rv.Truthy() {
				return relation.Bool_(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return relation.Null, nil
			}
			return relation.Bool_(false), nil
		}
		if lc && rc {
			return fold(out), true
		}
		if lc {
			if lv, err := l(nil); err == nil && !lv.IsNull() && lv.Truthy() {
				return constExpr(relation.Bool_(true)), true
			}
		}
		return out, false
	case "+", "-", "*", "/", "%":
		op := x.Op[0]
		out := func(row relation.Tuple) (relation.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relation.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return relation.Null, err
			}
			return relation.Arith(op, lv, rv)
		}
		if lc && rc {
			return fold(out), true
		}
		return out, false
	case "||":
		out := func(row relation.Tuple) (relation.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relation.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return relation.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return relation.Null, nil
			}
			return relation.String_(asString(lv) + asString(rv)), nil
		}
		if lc && rc {
			return fold(out), true
		}
		return out, false
	case "=", "<>", "<", "<=", ">", ">=":
		var test func(int) bool
		switch x.Op {
		case "=":
			test = func(c int) bool { return c == 0 }
		case "<>":
			test = func(c int) bool { return c != 0 }
		case "<":
			test = func(c int) bool { return c < 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		case ">=":
			test = func(c int) bool { return c >= 0 }
		}
		out := func(row relation.Tuple) (relation.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relation.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return relation.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return relation.Null, nil
			}
			c, ok := relation.Compare(lv, rv)
			if !ok {
				return relation.Null, fmt.Errorf("engine: cannot compare %s and %s", lv.Type, rv.Type)
			}
			return relation.Bool_(test(c)), nil
		}
		if lc && rc {
			return fold(out), true
		}
		return out, false
	}
	// Unknown binary op: Eval evaluates both operands first, then fails.
	err := fmt.Errorf("engine: unknown binary op %q", x.Op)
	return func(row relation.Tuple) (relation.Value, error) {
		if _, e := l(row); e != nil {
			return relation.Null, e
		}
		if _, e := r(row); e != nil {
			return relation.Null, e
		}
		return relation.Null, err
	}, false
}

// compileAll compiles a list of expressions against one schema.
func compileAll(exprs []sql.Expr, schema relation.Schema, funcs *FuncRegistry) []CompiledExpr {
	out := make([]CompiledExpr, len(exprs))
	for i, e := range exprs {
		out[i], _ = compileNode(e, schema, funcs)
	}
	return out
}

// compiledKey evaluates a fixed list of key expressions and encodes
// them with relation.AppendKey, the equality key every hash structure
// shares, in a reused byte buffer.
type compiledKey struct {
	fns []CompiledExpr
	buf []byte
}

func newCompiledKey(ctx *ExecContext, exprs []sql.Expr, schema relation.Schema) *compiledKey {
	return &compiledKey{fns: compileAll(exprs, schema, ctx.Funcs)}
}

// eval encodes the key of one row. The returned slice aliases the
// key's buffer and is valid until the next call. The zero ok return
// marks NULL keys (which never join).
func (k *compiledKey) eval(row relation.Tuple) ([]byte, bool, error) {
	buf := k.buf[:0]
	for _, f := range k.fns {
		v, err := f(row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, false, nil
		}
		buf = relation.AppendKey(buf, v)
	}
	k.buf = buf
	return buf, true, nil
}
