package nir

import (
	"sort"

	"f90y/internal/shape"
)

// WalkValues calls fn for v and every value reachable beneath it,
// including subscript and section components of AVar fields.
func WalkValues(v Value, fn func(Value)) {
	if v == nil {
		return
	}
	fn(v)
	switch v := v.(type) {
	case Binary:
		WalkValues(v.L, fn)
		WalkValues(v.R, fn)
	case Unary:
		WalkValues(v.X, fn)
	case FcnCall:
		for _, a := range v.Args {
			WalkValues(a, fn)
		}
	case AVar:
		walkField(v.Field, fn)
	}
}

func walkField(f Field, fn func(Value)) {
	switch f := f.(type) {
	case Subscript:
		for _, s := range f.Subs {
			WalkValues(s, fn)
		}
	case Section:
		for _, t := range f.Subs {
			switch {
			case t.Full:
			case t.Scalar:
				WalkValues(t.Lo, fn)
			default:
				WalkValues(t.Lo, fn)
				WalkValues(t.Hi, fn)
				if t.Step != nil {
					WalkValues(t.Step, fn)
				}
			}
		}
	}
}

// WalkImps calls fn for i and every imperative action beneath it.
func WalkImps(i Imp, fn func(Imp)) {
	if i == nil {
		return
	}
	fn(i)
	switch i := i.(type) {
	case Program:
		WalkImps(i.Body, fn)
	case Sequentially:
		for _, a := range i.List {
			WalkImps(a, fn)
		}
	case Concurrently:
		for _, a := range i.List {
			WalkImps(a, fn)
		}
	case IfThenElse:
		WalkImps(i.Then, fn)
		WalkImps(i.Else, fn)
	case While:
		WalkImps(i.Body, fn)
	case Do:
		WalkImps(i.Body, fn)
	case WithDecl:
		WalkImps(i.Body, fn)
	case WithDomain:
		WalkImps(i.Body, fn)
	}
}

// ValuesOf calls fn for every value appearing directly in action i
// (without descending into nested imperatives).
func ValuesOf(i Imp, fn func(Value)) {
	switch i := i.(type) {
	case Move:
		for _, m := range i.Moves {
			WalkValues(m.Mask, fn)
			WalkValues(m.Src, fn)
			WalkValues(m.Tgt, fn)
		}
	case IfThenElse:
		WalkValues(i.Cond, fn)
	case While:
		WalkValues(i.Cond, fn)
	case CallImp:
		for _, a := range i.Args {
			WalkValues(a, fn)
		}
	case WithDecl:
		if init, ok := i.Decl.(Initialized); ok {
			WalkValues(init.Init, fn)
		}
	}
}

// Names is a small set of identifiers kept sorted and duplicate-free. A
// statement touches a handful of names and a block's sets are merged
// and intersected per statement, which a sorted slice does in one pass
// and without a hash table per statement.
type Names []string

// Add returns the set with name in it.
func (s Names) Add(name string) Names {
	i := sort.SearchStrings(s, name)
	if i < len(s) && s[i] == name {
		return s
	}
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = name
	return s
}

// Union returns the set with every name of t in it.
func (s Names) Union(t Names) Names {
	for _, name := range t {
		s = s.Add(name)
	}
	return s
}

// Intersects reports whether the two sets share a name.
func (s Names) Intersects(t Names) bool {
	for i, j := 0, 0; i < len(s) && j < len(t); {
		switch {
		case s[i] == t[j]:
			return true
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Reads returns the set of identifiers whose storage action i may read,
// including reads nested anywhere beneath it. Mask expressions and
// subscript components count as reads; move targets do not (but their
// subscripts do).
func Reads(i Imp) Names {
	out := make(Names, 0, 8)
	EachRead(i, func(name string) { out = out.Add(name) })
	return out
}

// EachRead is Reads without the set: fn is called once per reading
// occurrence, so an identifier read twice is reported twice.
func EachRead(i Imp, fn func(name string)) {
	read := func(v Value) {
		switch v := v.(type) {
		case SVar:
			fn(v.Name)
		case AVar:
			fn(v.Name)
		}
	}
	WalkImps(i, func(a Imp) {
		switch a := a.(type) {
		case Move:
			for _, m := range a.Moves {
				WalkValues(m.Mask, read)
				WalkValues(m.Src, read)
				// Target subscripts are reads even though the target is a write.
				if av, ok := m.Tgt.(AVar); ok {
					walkField(av.Field, read)
				}
			}
		default:
			ValuesOf(a, read)
		}
	})
}

// Writes returns the set of identifiers whose storage action i may write.
func Writes(i Imp) Names {
	var out Names
	EachWrite(i, func(name string) { out = out.Add(name) })
	return out
}

// EachWrite is Writes without the set: fn is called once per written
// target.
func EachWrite(i Imp, fn func(name string)) {
	WalkImps(i, func(a Imp) {
		m, ok := a.(Move)
		if !ok {
			return
		}
		for _, g := range m.Moves {
			switch t := g.Tgt.(type) {
			case SVar:
				fn(t.Name)
			case AVar:
				fn(t.Name)
			}
		}
	})
}

// RewriteValues applies fn bottom-up to every value in v, rebuilding
// containers. fn receives each already-rewritten node and returns its
// replacement.
func RewriteValues(v Value, fn func(Value) Value) Value {
	if v == nil {
		return nil
	}
	switch vv := v.(type) {
	case Binary:
		vv.L = RewriteValues(vv.L, fn)
		vv.R = RewriteValues(vv.R, fn)
		return fn(vv)
	case Unary:
		vv.X = RewriteValues(vv.X, fn)
		return fn(vv)
	case FcnCall:
		args := make([]Value, len(vv.Args))
		for i, a := range vv.Args {
			args[i] = RewriteValues(a, fn)
		}
		vv.Args = args
		return fn(vv)
	case AVar:
		vv.Field = rewriteField(vv.Field, fn)
		return fn(vv)
	default:
		return fn(v)
	}
}

func rewriteField(f Field, fn func(Value) Value) Field {
	switch ff := f.(type) {
	case Subscript:
		subs := make([]Value, len(ff.Subs))
		for i, s := range ff.Subs {
			subs[i] = RewriteValues(s, fn)
		}
		return Subscript{Subs: subs}
	case Section:
		subs := make([]Triplet, len(ff.Subs))
		for i, t := range ff.Subs {
			switch {
			case t.Full:
				subs[i] = t
			case t.Scalar:
				subs[i] = Triplet{Scalar: true, Lo: RewriteValues(t.Lo, fn)}
			default:
				nt := Triplet{Lo: RewriteValues(t.Lo, fn), Hi: RewriteValues(t.Hi, fn)}
				if t.Step != nil {
					nt.Step = RewriteValues(t.Step, fn)
				}
				subs[i] = nt
			}
		}
		return Section{Subs: subs}
	default:
		return f
	}
}

// RewriteImps applies fn bottom-up to every imperative in i.
func RewriteImps(i Imp, fn func(Imp) Imp) Imp {
	if i == nil {
		return nil
	}
	switch ii := i.(type) {
	case Program:
		ii.Body = RewriteImps(ii.Body, fn)
		return fn(ii)
	case Sequentially:
		list := make([]Imp, len(ii.List))
		for k, a := range ii.List {
			list[k] = RewriteImps(a, fn)
		}
		ii.List = list
		return fn(ii)
	case Concurrently:
		list := make([]Imp, len(ii.List))
		for k, a := range ii.List {
			list[k] = RewriteImps(a, fn)
		}
		ii.List = list
		return fn(ii)
	case IfThenElse:
		ii.Then = RewriteImps(ii.Then, fn)
		ii.Else = RewriteImps(ii.Else, fn)
		return fn(ii)
	case While:
		ii.Body = RewriteImps(ii.Body, fn)
		return fn(ii)
	case Do:
		ii.Body = RewriteImps(ii.Body, fn)
		return fn(ii)
	case WithDecl:
		ii.Body = RewriteImps(ii.Body, fn)
		return fn(ii)
	case WithDomain:
		ii.Body = RewriteImps(ii.Body, fn)
		return fn(ii)
	default:
		return fn(i)
	}
}

// EqualValue reports structural equality of two values.
func EqualValue(a, b Value) bool {
	switch a := a.(type) {
	case nil:
		return b == nil
	case Binary:
		bb, ok := b.(Binary)
		return ok && a.Op == bb.Op && EqualValue(a.L, bb.L) && EqualValue(a.R, bb.R)
	case Unary:
		bb, ok := b.(Unary)
		return ok && a.Op == bb.Op && EqualValue(a.X, bb.X)
	case SVar:
		bb, ok := b.(SVar)
		return ok && a == bb
	case Const:
		bb, ok := b.(Const)
		return ok && a == bb
	case FcnCall:
		bb, ok := b.(FcnCall)
		if !ok || a.Name != bb.Name || len(a.Args) != len(bb.Args) {
			return false
		}
		for i := range a.Args {
			if !EqualValue(a.Args[i], bb.Args[i]) {
				return false
			}
		}
		return true
	case AVar:
		bb, ok := b.(AVar)
		return ok && a.Name == bb.Name && equalField(a.Field, bb.Field)
	case StrConst:
		bb, ok := b.(StrConst)
		return ok && a == bb
	case LocalUnder:
		bb, ok := b.(LocalUnder)
		return ok && a.Dim == bb.Dim && shape.Equal(a.S, bb.S)
	}
	return false
}

func equalField(a, b Field) bool {
	switch a := a.(type) {
	case Everywhere:
		_, ok := b.(Everywhere)
		return ok
	case Subscript:
		bb, ok := b.(Subscript)
		if !ok || len(a.Subs) != len(bb.Subs) {
			return false
		}
		for i := range a.Subs {
			if !EqualValue(a.Subs[i], bb.Subs[i]) {
				return false
			}
		}
		return true
	case Section:
		bb, ok := b.(Section)
		if !ok || len(a.Subs) != len(bb.Subs) {
			return false
		}
		for i := range a.Subs {
			if !equalTriplet(a.Subs[i], bb.Subs[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func equalTriplet(a, b Triplet) bool {
	if a.Full != b.Full || a.Scalar != b.Scalar {
		return false
	}
	if a.Full {
		return true
	}
	if a.Scalar {
		return EqualValue(a.Lo, b.Lo)
	}
	if !EqualValue(a.Lo, b.Lo) || !EqualValue(a.Hi, b.Hi) {
		return false
	}
	if (a.Step == nil) != (b.Step == nil) {
		return false
	}
	return a.Step == nil || EqualValue(a.Step, b.Step)
}
