package main

import (
	"reflect"
	"testing"

	"ringcast/internal/core"
	"ringcast/internal/transport"
)

// assertSameMethods fails unless wrapper has every method of wrapped, with
// the same signature: a type assertion in the program that succeeds on the
// wrapped value must succeed on the wrapper too.
func assertSameMethods(t *testing.T, wrapped, wrapper reflect.Type) {
	t.Helper()
	for i := 0; i < wrapped.NumMethod(); i++ {
		m := wrapped.Method(i)
		w, ok := wrapper.MethodByName(m.Name)
		if !ok {
			t.Errorf("%v lacks %v's method %s", wrapper, wrapped, m.Name)
			continue
		}
		// Compare signatures without the receiver.
		if !sameFunc(m.Type, w.Type) {
			t.Errorf("%v.%s is %v, %v's is %v", wrapper, m.Name, w.Type, wrapped, m.Type)
		}
	}
}

func sameFunc(a, b reflect.Type) bool {
	if a.NumIn() != b.NumIn() || a.NumOut() != b.NumOut() || a.IsVariadic() != b.IsVariadic() {
		return false
	}
	for i := 1; i < a.NumIn(); i++ {
		if a.In(i) != b.In(i) {
			return false
		}
	}
	for i := 0; i < a.NumOut(); i++ {
		if a.Out(i) != b.Out(i) {
			return false
		}
	}
	return true
}

func TestWrappersKeepTheCodePath(t *testing.T) {
	assertSameMethods(t, reflect.TypeOf(&transport.TCPTransport{}), reflect.TypeOf(&tracedTransport{}))
	assertSameMethods(t, reflect.TypeOf(core.RingCast{}), reflect.TypeOf(tracedSelector{}))
}
