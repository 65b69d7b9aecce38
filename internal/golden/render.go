package golden

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
)

// Render writes v as deterministic text that keeps every bit of its
// numbers, for hashing with Check. A formatted table rounds; Render does
// not, so a last-bit drift in any float64 of a result changes its digest.
//
// Floats are written with strconv's shortest round-trip form (±Inf and NaN
// included), maps in the sorted order of their rendered keys, and pointers
// and interfaces by what they point to, never by address. Unexported fields
// are rendered too. Render panics on a func, channel or complex number; a
// value that points back into itself never finishes.
func Render(v any) []byte {
	var b bytes.Buffer
	render(&b, reflect.ValueOf(v))
	return b.Bytes()
}

func render(b *bytes.Buffer, v reflect.Value) {
	if !v.IsValid() {
		b.WriteString("nil")
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, v.Type().Bits()))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteByte('&')
		render(b, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteString(v.Elem().Type().String())
		b.WriteByte('(')
		render(b, v.Elem())
		b.WriteByte(')')
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			render(b, v.Index(i))
		}
		b.WriteByte(']')
	case reflect.Map:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		type entry struct{ k, v string }
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var kb, vb bytes.Buffer
			render(&kb, it.Key())
			render(&vb, it.Value())
			entries = append(entries, entry{kb.String(), vb.String()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].k < entries[j].k })
		b.WriteString("map[")
		for i, e := range entries {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(e.k)
			b.WriteByte(':')
			b.WriteString(e.v)
		}
		b.WriteByte(']')
	case reflect.Struct:
		t := v.Type()
		b.WriteString(t.String())
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(t.Field(i).Name)
			b.WriteByte(':')
			render(b, v.Field(i))
		}
		b.WriteByte('}')
	default:
		// Funcs, channels and complex numbers hold no experiment output.
		panic(fmt.Sprintf("golden: cannot render a %s", v.Type()))
	}
}
