package engine

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/sql"
)

// This file holds the tree-walking expression interpreter. It is the
// reference the compiled closures (compile.go) and the columnar kernels
// (vec.go) are checked against by the differential tests; production
// execution never walks the tree.

// Eval evaluates expr against one tuple under the given schema.
// Aggregate calls are resolved as column references named by the
// expression text (the aggregate plan materialises them that way); if no
// such column exists the evaluation fails.
func Eval(e sql.Expr, schema relation.Schema, row relation.Tuple, funcs *FuncRegistry) (relation.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Value, nil
	case *sql.ColumnRef:
		i, err := schema.IndexOf(x.FullName())
		if err != nil {
			return relation.Null, err
		}
		return row[i], nil
	case *sql.BinaryExpr:
		return evalBinary(x, schema, row, funcs)
	case *sql.UnaryExpr:
		v, err := Eval(x.Expr, schema, row, funcs)
		if err != nil {
			return relation.Null, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return relation.Null, nil
			}
			return relation.Bool_(!v.Truthy()), nil
		case "-":
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
		return relation.Null, fmt.Errorf("engine: unknown unary op %q", x.Op)
	case *sql.IsNullExpr:
		v, err := Eval(x.Expr, schema, row, funcs)
		if err != nil {
			return relation.Null, err
		}
		return relation.Bool_(v.IsNull() != x.Negate), nil
	case *sql.InExpr:
		v, err := Eval(x.Expr, schema, row, funcs)
		if err != nil {
			return relation.Null, err
		}
		if v.IsNull() {
			return relation.Null, nil
		}
		for _, item := range x.List {
			iv, err := Eval(item, schema, row, funcs)
			if err != nil {
				return relation.Null, err
			}
			if relation.Equal(v, iv) {
				return relation.Bool_(!x.Negate), nil
			}
		}
		return relation.Bool_(x.Negate), nil
	case *sql.CaseExpr:
		for _, w := range x.Whens {
			c, err := Eval(w.Cond, schema, row, funcs)
			if err != nil {
				return relation.Null, err
			}
			if c.Truthy() {
				return Eval(w.Then, schema, row, funcs)
			}
		}
		if x.Else != nil {
			return Eval(x.Else, schema, row, funcs)
		}
		return relation.Null, nil
	case *sql.FuncExpr:
		// Aggregates reach Eval only above an aggregate plan, which
		// exposes them as columns named by their expression text.
		if IsAggregate(x.Name) {
			i, err := schema.IndexOf(x.String())
			if err != nil {
				return relation.Null, fmt.Errorf("engine: aggregate %s outside GROUP BY context", x)
			}
			return row[i], nil
		}
		if funcs == nil {
			return relation.Null, fmt.Errorf("engine: no function registry for %s", x.Name)
		}
		f, ok := funcs.Lookup(x.Name)
		if !ok {
			return relation.Null, fmt.Errorf("engine: unknown function %q", x.Name)
		}
		args := make([]relation.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := Eval(a, schema, row, funcs)
			if err != nil {
				return relation.Null, err
			}
			args[i] = v
		}
		return f(args)
	default:
		return relation.Null, fmt.Errorf("engine: cannot evaluate %T", e)
	}
}

func evalBinary(x *sql.BinaryExpr, schema relation.Schema, row relation.Tuple, funcs *FuncRegistry) (relation.Value, error) {
	// AND/OR get short-circuit evaluation with three-valued logic.
	switch x.Op {
	case "AND":
		l, err := Eval(x.Left, schema, row, funcs)
		if err != nil {
			return relation.Null, err
		}
		if !l.IsNull() && !l.Truthy() {
			return relation.Bool_(false), nil
		}
		r, err := Eval(x.Right, schema, row, funcs)
		if err != nil {
			return relation.Null, err
		}
		if !r.IsNull() && !r.Truthy() {
			return relation.Bool_(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		return relation.Bool_(true), nil
	case "OR":
		l, err := Eval(x.Left, schema, row, funcs)
		if err != nil {
			return relation.Null, err
		}
		if !l.IsNull() && l.Truthy() {
			return relation.Bool_(true), nil
		}
		r, err := Eval(x.Right, schema, row, funcs)
		if err != nil {
			return relation.Null, err
		}
		if !r.IsNull() && r.Truthy() {
			return relation.Bool_(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		return relation.Bool_(false), nil
	}

	l, err := Eval(x.Left, schema, row, funcs)
	if err != nil {
		return relation.Null, err
	}
	r, err := Eval(x.Right, schema, row, funcs)
	if err != nil {
		return relation.Null, err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return relation.Arith(x.Op[0], l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		return relation.String_(asString(l) + asString(r)), nil
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return relation.Null, nil
		}
		c, ok := relation.Compare(l, r)
		if !ok {
			return relation.Null, fmt.Errorf("engine: cannot compare %s and %s", l.Type, r.Type)
		}
		var b bool
		switch x.Op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return relation.Bool_(b), nil
	}
	return relation.Null, fmt.Errorf("engine: unknown binary op %q", x.Op)
}
