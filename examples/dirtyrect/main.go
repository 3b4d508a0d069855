// Dirty-rectangle partial recompute — streaming a stencil pipeline over
// frames whose content changes only inside a small rectangle (a cursor,
// an overlay, a sprite). Each frame passes the changed region as the ROI;
// the engine recomputes only the points whose reads reach it — stencil
// footprints widen the region automatically — writing into the previous
// frame's buffers, where every other point keeps its value, bit for bit.
package main

import (
	"fmt"
	"log"
	"time"

	polymage "repro"
)

const (
	size   = 512
	frames = 8
)

func main() {
	b := polymage.NewBuilder()
	N := b.Param("N")
	I := b.Image("I", polymage.Float, N.Affine(), N.Affine())
	x, y := b.Var("x"), b.Var("y")
	vars := []*polymage.Variable{x, y}
	interior := func(inset int64) []polymage.Interval {
		return []polymage.Interval{
			polymage.Span(polymage.ConstExpr(inset), N.Affine().AddConst(-inset-1)),
			polymage.Span(polymage.ConstExpr(inset), N.Affine().AddConst(-inset-1)),
		}
	}
	// Two chained 3x3 box blurs and an unsharp mask: a fused, overlapped-
	// tiled stencil group whose 2-pixel total footprint decides which
	// points a dirty rectangle reaches.
	box3 := [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	blur1 := b.Func("blur1", polymage.Float, vars, interior(1))
	blur1.Define(polymage.Case{E: polymage.Stencil(I, 1.0/9, box3, [2]any{x, y})})
	blur2 := b.Func("blur2", polymage.Float, vars, interior(2))
	blur2.Define(polymage.Case{E: polymage.Stencil(blur1, 1.0/9, box3, [2]any{x, y})})
	sharp := b.Func("sharp", polymage.Float, vars, interior(2))
	sharp.Define(polymage.Case{E: polymage.Sub(polymage.Mul(2, I.At(x, y)), blur2.At(x, y))})

	params := map[string]int64{"N": size}
	pl, err := polymage.Compile(b, []string{"sharp"}, polymage.Options{Estimates: params})
	if err != nil {
		log.Fatal(err)
	}
	prog, err := pl.Bind(params, polymage.ExecOptions{Fast: true})
	if err != nil {
		log.Fatal(err)
	}
	defer prog.Close()

	in := polymage.NewBuffer(polymage.Box{{Lo: 0, Hi: size - 1}, {Lo: 0, Hi: size - 1}})
	polymage.FillPattern(in, 7)
	inputs := map[string]*polymage.Buffer{"I": in}

	st, err := prog.Executor().NewStream(polymage.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// Frame 0 is the unavoidable whole-frame compute.
	if _, err := st.RunFrame(inputs, nil); err != nil {
		log.Fatal(err)
	}

	// A 48x48 "cursor" moves across the image; each frame redraws only
	// that square and tells the engine where it is.
	const cursor = 48
	fmt.Printf("%dx%d frames, %dx%d dirty rectangle per frame:\n", size, size, cursor, cursor)
	prev := st.Stats()
	for f := 1; f < frames; f++ {
		lo := int64(16 + 56*f)
		roi := polymage.Box{{Lo: lo, Hi: lo + cursor - 1}, {Lo: lo, Hi: lo + cursor - 1}}
		for xx := roi[0].Lo; xx <= roi[0].Hi; xx++ {
			for yy := roi[1].Lo; yy <= roi[1].Hi; yy++ {
				in.Set(float32(f), xx, yy)
			}
		}
		start := time.Now()
		if _, err := st.RunFrame(inputs, roi); err != nil {
			log.Fatal(err)
		}
		d := time.Since(start)
		s := st.Stats()
		fmt.Printf("  frame %d: roi [%d,%d]^2  %2d tiles recomputed, %2d kept  (%.2f ms)\n",
			f, lo, lo+cursor-1, s.TilesExecuted-prev.TilesExecuted, s.TilesSkipped-prev.TilesSkipped,
			float64(d.Microseconds())/1000.0)
		prev = s
	}
	total := st.Stats()
	share := float64(total.TilesSkipped) / float64(total.TilesExecuted+total.TilesSkipped)
	fmt.Printf("over %d ROI frames: %.0f%% of tiles kept instead of recomputed\n", frames-1, 100*share)
}
