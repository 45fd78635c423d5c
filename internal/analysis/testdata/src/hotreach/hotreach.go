// Package hotreach exercises the transitive hot-path closure: call edges
// into unmarked functions, every allocation form, and the sanctioned
// escapes (func-value calls, math kernels, //bplint:allow).
package hotreach

import (
	"fmt"
	"math"
)

type vec struct{ x, y float64 }

// sink accepts anything; hot callers must pass pointers to avoid boxing.
//
//bp:hotpath
func sink(v interface{}) { _ = v }

// helper is on the kernel and only calls the math allowlist.
//
//bp:hotpath
func helper(x float64) float64 { return math.Sqrt(x) }

// cold is deliberately unmarked.
func cold(x float64) float64 { return x + 1 }

// helper2 shows the closure applies at every hot level, not just the root.
//
//bp:hotpath
func helper2(x float64) float64 {
	return cold(x) // want `hot-path function helper2 calls hotreach\.cold, which is not marked`
}

//bp:hotpath
func kernel(xs []float64, v vec, a, b string) float64 {
	s := 0.0
	for _, x := range xs {
		s += helper(x) // hot callee: fine
	}
	s += cold(s)              // want `hot-path function kernel calls hotreach\.cold, which is not marked`
	buf := make([]float64, 4) // want `make in hot-path function kernel allocates`
	_ = buf
	xs = append(xs, s) // want `append in hot-path function kernel can grow its backing array`
	p := new(vec)      // want `new in hot-path function kernel allocates`
	_ = p
	f := func() float64 { return s } // want `closure created in hot-path function kernel`
	s += f()
	name := a + b     // want `string concatenation in hot-path function kernel`
	fmt.Println(name) // want `fmt\.Println call in hot-path function kernel allocates and reflects`
	sink(v)           // want `concrete value boxed into interface parameter 1 of sink`
	sink(&v)          // pointer argument: no boxing copy
	fn := cold
	s += fn(s)         // func-value call: the sanctioned hot-path indirection
	xs = append(xs, 0) //bplint:allow hotreach -- fixture: documented cold sub-path
	return s + xs[0]
}
