package interp

import (
	"strconv"
	"strings"

	"github.com/omp4go/omp4go/internal/minipy"
)

// getAttr resolves obj.name: module attributes and built-in methods
// of list/dict/set/str values.
func (th *Thread) getAttr(obj Value, name string, pos minipy.Position) (Value, error) {
	if m, ok := obj.(*Module); ok {
		if v, ok := m.Attrs[name]; ok {
			return v, nil
		}
		return nil, &PyError{Type: "AttributeError",
			Msg: "module '" + m.Name + "' has no attribute '" + name + "'", Pos: pos}
	}
	if exc, ok := obj.(*ExcValue); ok && name == "args" {
		return &Tuple{Elts: []Value{exc.Msg}}, nil
	}
	var table map[string]method
	switch obj.(type) {
	case *List:
		table = listMethods
	case *Dict:
		table = dictMethods
	case *Set:
		table = setMethods
	case string:
		table = strMethods
	}
	if table != nil {
		if m, ok := table[name]; ok {
			return &BoundMethod{Recv: obj, Name: name, Sig: m.sig, Fn: m.fn}, nil
		}
	}
	return nil, &PyError{Type: "AttributeError",
		Msg: "'" + TypeName(obj) + "' object has no attribute '" + name + "'", Pos: pos}
}

// method is a built-in method of list/dict/set/str values.
type method struct {
	sig Sig
	fn  func(th *Thread, recv Value, args []Value) (Value, error)
}

var listMethods = map[string]method{
	"append": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		recv.(*List).Append(args[0])
		return nil, nil
	}},
	"extend": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		vals, err := iterValues(args[0])
		if err != nil {
			return nil, err
		}
		l := recv.(*List)
		for _, v := range vals {
			l.Append(v)
		}
		return nil, nil
	}},
	"pop": {Args(0, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		i := int64(-1)
		if len(args) == 1 {
			n, ok := asInt(args[0])
			if !ok {
				return nil, &PyError{Type: "TypeError", Msg: "pop index must be int"}
			}
			i = n
		}
		v, ok := recv.(*List).Pop(int(i))
		if !ok {
			return nil, &PyError{Type: "IndexError", Msg: "pop index out of range"}
		}
		return v, nil
	}},
	"insert": {Args(2, 2), func(th *Thread, recv Value, args []Value) (Value, error) {
		i, ok := asInt(args[0])
		if !ok {
			return nil, &PyError{Type: "TypeError", Msg: "insert index must be int"}
		}
		recv.(*List).Insert(int(i), args[1])
		return nil, nil
	}},
	"sort": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		if err := recv.(*List).SortInPlace(); err != nil {
			return nil, err
		}
		return nil, nil
	}},
	"reverse": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		l := recv.(*List)
		n := l.Len()
		for i := 0; i < n/2; i++ {
			a, b := l.Get(i), l.Get(n-1-i)
			l.Set(i, b)
			l.Set(n-1-i, a)
		}
		return nil, nil
	}},
	"index": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		l := recv.(*List)
		for i := 0; i < l.Len(); i++ {
			if valueEqual(l.Get(i), args[0]) {
				return int64(i), nil
			}
		}
		return nil, &PyError{Type: "ValueError", Msg: Repr(args[0]) + " is not in list"}
	}},
	"count": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		l := recv.(*List)
		n := int64(0)
		for i := 0; i < l.Len(); i++ {
			if valueEqual(l.Get(i), args[0]) {
				n++
			}
		}
		return n, nil
	}},
	"clear": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		l := recv.(*List)
		for l.Len() > 0 {
			l.Pop(-1)
		}
		return nil, nil
	}},
	"copy": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		return NewList(recv.(*List).Values()), nil
	}},
}

var dictMethods = map[string]method{
	"get": {Args(1, 2), func(th *Thread, recv Value, args []Value) (Value, error) {
		v, ok, err := recv.(*Dict).Get(args[0])
		if err != nil {
			return nil, err
		}
		if ok {
			return v, nil
		}
		if len(args) == 2 {
			return args[1], nil
		}
		return nil, nil
	}},
	"keys": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		items := recv.(*Dict).Items()
		out := make([]Value, len(items))
		for i, kv := range items {
			out[i] = kv[0]
		}
		return NewList(out), nil
	}},
	"values": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		items := recv.(*Dict).Items()
		out := make([]Value, len(items))
		for i, kv := range items {
			out[i] = kv[1]
		}
		return NewList(out), nil
	}},
	"items": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		items := recv.(*Dict).Items()
		out := make([]Value, len(items))
		for i, kv := range items {
			out[i] = &Tuple{Elts: []Value{kv[0], kv[1]}}
		}
		return NewList(out), nil
	}},
	"pop": {Args(1, 2), func(th *Thread, recv Value, args []Value) (Value, error) {
		d := recv.(*Dict)
		v, ok, err := d.Get(args[0])
		if err != nil {
			return nil, err
		}
		if !ok {
			if len(args) == 2 {
				return args[1], nil
			}
			return nil, &PyError{Type: "KeyError", Msg: Repr(args[0])}
		}
		if _, err := d.Delete(args[0]); err != nil {
			return nil, err
		}
		return v, nil
	}},
	"setdefault": {Args(1, 2), func(th *Thread, recv Value, args []Value) (Value, error) {
		d := recv.(*Dict)
		var def Value
		if len(args) == 2 {
			def = args[1]
		}
		v, ok, err := d.Get(args[0])
		if err != nil {
			return nil, err
		}
		if ok {
			return v, nil
		}
		if err := d.Set(args[0], def); err != nil {
			return nil, err
		}
		return def, nil
	}},
	"update": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		src, ok := args[0].(*Dict)
		if !ok {
			return nil, &PyError{Type: "TypeError", Msg: "update() argument must be dict"}
		}
		d := recv.(*Dict)
		for _, kv := range src.Items() {
			if err := d.Set(kv[0], kv[1]); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}},
	"clear": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		d := recv.(*Dict)
		for _, kv := range d.Items() {
			if _, err := d.Delete(kv[0]); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}},
	"copy": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		d := recv.(*Dict)
		out := NewDict()
		for _, kv := range d.Items() {
			if err := out.Set(kv[0], kv[1]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}},
}

var setMethods = map[string]method{
	"add": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		return nil, recv.(*Set).Add(args[0])
	}},
	"remove": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		ok, err := recv.(*Set).Remove(args[0])
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, &PyError{Type: "KeyError", Msg: Repr(args[0])}
		}
		return nil, nil
	}},
	"discard": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		_, err := recv.(*Set).Remove(args[0])
		return nil, err
	}},
	"union": {Args(0, -1), func(th *Thread, recv Value, args []Value) (Value, error) {
		out := NewSet()
		for _, v := range recv.(*Set).Values() {
			if err := out.Add(v); err != nil {
				return nil, err
			}
		}
		for _, a := range args {
			vals, err := iterValues(a)
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				if err := out.Add(v); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}},
	"intersection": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		other, ok := args[0].(*Set)
		if !ok {
			return nil, &PyError{Type: "TypeError", Msg: "intersection() argument must be set"}
		}
		out := NewSet()
		for _, v := range recv.(*Set).Values() {
			has, err := other.Has(v)
			if err != nil {
				return nil, err
			}
			if has {
				if err := out.Add(v); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}},
}

var strMethods = map[string]method{
	"split": {Args(0, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		s := recv.(string)
		var parts []string
		if len(args) == 0 {
			parts = strings.Fields(s)
		} else {
			sep, ok := args[0].(string)
			if !ok || sep == "" {
				return nil, &PyError{Type: "ValueError", Msg: "empty separator"}
			}
			parts = strings.Split(s, sep)
		}
		out := make([]Value, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return NewList(out), nil
	}},
	"join": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		vals, err := iterValues(args[0])
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			s, ok := v.(string)
			if !ok {
				return nil, &PyError{Type: "TypeError",
					Msg: "sequence item " + strconv.Itoa(i) + ": expected str instance"}
			}
			parts[i] = s
		}
		return strings.Join(parts, recv.(string)), nil
	}},
	"lower": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		return strings.ToLower(recv.(string)), nil
	}},
	"upper": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		return strings.ToUpper(recv.(string)), nil
	}},
	"strip": {Args(0, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		if len(args) == 1 {
			cut, ok := args[0].(string)
			if !ok {
				return nil, &PyError{Type: "TypeError", Msg: "strip arg must be str"}
			}
			return strings.Trim(recv.(string), cut), nil
		}
		return strings.TrimSpace(recv.(string)), nil
	}},
	"replace": {Args(2, 2), func(th *Thread, recv Value, args []Value) (Value, error) {
		old, ok1 := args[0].(string)
		new_, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, &PyError{Type: "TypeError", Msg: "replace arguments must be str"}
		}
		return strings.ReplaceAll(recv.(string), old, new_), nil
	}},
	"startswith": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		p, ok := args[0].(string)
		if !ok {
			return nil, &PyError{Type: "TypeError", Msg: "startswith argument must be str"}
		}
		return strings.HasPrefix(recv.(string), p), nil
	}},
	"endswith": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		p, ok := args[0].(string)
		if !ok {
			return nil, &PyError{Type: "TypeError", Msg: "endswith argument must be str"}
		}
		return strings.HasSuffix(recv.(string), p), nil
	}},
	"find": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		p, ok := args[0].(string)
		if !ok {
			return nil, &PyError{Type: "TypeError", Msg: "find argument must be str"}
		}
		return int64(strings.Index(recv.(string), p)), nil
	}},
	"count": {Args(1, 1), func(th *Thread, recv Value, args []Value) (Value, error) {
		p, ok := args[0].(string)
		if !ok {
			return nil, &PyError{Type: "TypeError", Msg: "count argument must be str"}
		}
		return int64(strings.Count(recv.(string), p)), nil
	}},
	"isalpha": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		s := recv.(string)
		if s == "" {
			return false, nil
		}
		for _, r := range s {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= 0x80) {
				return false, nil
			}
		}
		return true, nil
	}},
	"isdigit": {Args(0, 0), func(th *Thread, recv Value, args []Value) (Value, error) {
		s := recv.(string)
		if s == "" {
			return false, nil
		}
		for _, r := range s {
			if r < '0' || r > '9' {
				return false, nil
			}
		}
		return true, nil
	}},
}
