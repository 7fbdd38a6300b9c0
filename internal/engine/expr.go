// Package engine implements ExaStream's relational query processor: an
// expression evaluator, materialising plan operators (scan, filter,
// project, hash/nested-loop join, aggregate, sort, distinct, limit,
// union), a planner that compiles SQL(+) ASTs to plans, and the
// optimisations the paper relies on to make unfolded query fleets
// executable (predicate pushdown, hash-join detection, duplicate-union
// and self-join elimination).
package engine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// ScalarFunc is a scalar UDF: it maps argument values to a result.
type ScalarFunc func(args []relation.Value) (relation.Value, error)

// FuncRegistry holds scalar UDFs by lower-case name. ExaStream registers
// its native UDFs here (paper §2: "natively supports User Defined
// Functions with arbitrary user code").
type FuncRegistry struct {
	scalars map[string]ScalarFunc
}

// NewFuncRegistry returns a registry preloaded with built-in scalar
// functions: abs, coalesce, upper, lower, length, round, concat.
func NewFuncRegistry() *FuncRegistry {
	r := &FuncRegistry{scalars: make(map[string]ScalarFunc)}
	r.Register("abs", func(args []relation.Value) (relation.Value, error) {
		if err := arity("abs", args, 1); err != nil {
			return relation.Null, err
		}
		v := args[0]
		switch v.Type {
		case relation.TInt:
			if v.Int < 0 {
				return relation.Int(-v.Int), nil
			}
			return v, nil
		case relation.TFloat:
			return relation.Float(math.Abs(v.Float)), nil
		case relation.TNull:
			return relation.Null, nil
		}
		return relation.Null, fmt.Errorf("engine: abs: non-numeric argument %s", v)
	})
	r.Register("coalesce", func(args []relation.Value) (relation.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return relation.Null, nil
	})
	r.Register("upper", stringFunc("upper", strings.ToUpper))
	r.Register("lower", stringFunc("lower", strings.ToLower))
	r.Register("length", func(args []relation.Value) (relation.Value, error) {
		if err := arity("length", args, 1); err != nil {
			return relation.Null, err
		}
		if args[0].IsNull() {
			return relation.Null, nil
		}
		if args[0].Type != relation.TString {
			return relation.Null, fmt.Errorf("engine: length: non-string argument")
		}
		return relation.Int(int64(len(args[0].Str))), nil
	})
	r.Register("round", func(args []relation.Value) (relation.Value, error) {
		if err := arity("round", args, 1); err != nil {
			return relation.Null, err
		}
		f, ok := args[0].AsFloat()
		if !ok {
			if args[0].IsNull() {
				return relation.Null, nil
			}
			return relation.Null, fmt.Errorf("engine: round: non-numeric argument")
		}
		return relation.Float(math.Round(f)), nil
	})
	r.Register("concat", func(args []relation.Value) (relation.Value, error) {
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			if a.Type == relation.TString {
				sb.WriteString(a.Str)
			} else {
				sb.WriteString(strings.Trim(a.String(), "'"))
			}
		}
		return relation.String_(sb.String()), nil
	})
	return r
}

func stringFunc(name string, f func(string) string) ScalarFunc {
	return func(args []relation.Value) (relation.Value, error) {
		if err := arity(name, args, 1); err != nil {
			return relation.Null, err
		}
		if args[0].IsNull() {
			return relation.Null, nil
		}
		if args[0].Type != relation.TString {
			return relation.Null, fmt.Errorf("engine: %s: non-string argument", name)
		}
		return relation.String_(f(args[0].Str)), nil
	}
}

func arity(name string, args []relation.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("engine: %s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

// Register installs a scalar UDF, replacing any previous one of the name.
func (r *FuncRegistry) Register(name string, f ScalarFunc) {
	r.scalars[strings.ToLower(name)] = f
}

// Lookup returns the named scalar function.
func (r *FuncRegistry) Lookup(name string) (ScalarFunc, bool) {
	f, ok := r.scalars[strings.ToLower(name)]
	return f, ok
}

// aggregateNames lists the built-in SQL aggregate functions.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"stddev": true, "corr": true, "first": true, "last": true,
}

// IsAggregate reports whether name is a built-in aggregate function.
func IsAggregate(name string) bool { return aggregateNames[strings.ToLower(name)] }

// HasAggregate reports whether the expression tree contains an aggregate
// call.
func HasAggregate(e sql.Expr) bool {
	found := false
	walkExpr(e, func(x sql.Expr) {
		if f, ok := x.(*sql.FuncExpr); ok && IsAggregate(f.Name) {
			found = true
		}
	})
	return found
}

// walkExpr visits every node of the expression tree in preorder.
func walkExpr(e sql.Expr, visit func(sql.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *sql.BinaryExpr:
		walkExpr(x.Left, visit)
		walkExpr(x.Right, visit)
	case *sql.UnaryExpr:
		walkExpr(x.Expr, visit)
	case *sql.IsNullExpr:
		walkExpr(x.Expr, visit)
	case *sql.FuncExpr:
		for _, a := range x.Args {
			walkExpr(a, visit)
		}
	case *sql.CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.Cond, visit)
			walkExpr(w.Then, visit)
		}
		walkExpr(x.Else, visit)
	case *sql.InExpr:
		walkExpr(x.Expr, visit)
		for _, i := range x.List {
			walkExpr(i, visit)
		}
	}
}

func asString(v relation.Value) string {
	if v.Type == relation.TString {
		return v.Str
	}
	return strings.Trim(v.String(), "'")
}
