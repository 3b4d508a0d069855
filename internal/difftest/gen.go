package difftest

import "math/rand"

// Generate derives a random pipeline spec deterministically from seed: the
// same seed always yields the same spec, so a failure report only needs
// the seed to replay (the shrunk spec literal is printed as well for
// convenience). Roughly a quarter of rank-1 specs use parametric extents;
// rank-2 specs mix stencils, separable taps and per-axis resampling.
func Generate(seed int64) PipelineSpec {
	r := rand.New(rand.NewSource(seed))
	sp := PipelineSpec{Seed: seed}
	sp.Rank = 1 + r.Intn(2)
	if sp.Rank == 1 {
		sp.N = int64(64 << r.Intn(3)) // 64, 128 or 256
		sp.Parametric = r.Intn(4) == 0
	} else {
		sp.N = int64(32 << r.Intn(2)) // 32 or 64
	}
	nStages := 3 + r.Intn(12)
	for i := 0; i < nStages; i++ {
		sp.Stages = append(sp.Stages, randStage(r, sp.Rank, i))
	}
	return sp
}

// GenerateInteger derives the integer-mode variant of seed's spec: the
// same DAG shape as Generate(seed), rebuilt with all-integral arithmetic
// over a uint8 input image (the narrow-type difftest corpus). It is a
// separate entry point rather than a generator axis so the float corpus —
// and with it the piece shapes the checked-in gencorpus kernels cover —
// stays byte-identical.
func GenerateInteger(seed int64) PipelineSpec {
	sp := Generate(seed)
	sp.Integer = true
	return sp
}

// kindWeights biases generation toward the interesting shapes; Copy is
// reachable anyway through degradation.
var kindWeights = []struct {
	kind StageKind
	w    int
	rank int // 0 = any
}{
	{KindCopy, 1, 0},
	{KindPointAdd, 3, 0},
	{KindPointMad, 2, 0},
	{KindStencil3, 3, 0},
	{KindStencil5, 2, 0},
	{KindStencil9, 1, 0},
	{KindStencil2D, 3, 2},
	{KindDown, 2, 0},
	{KindUp, 1, 0},
}

func randStage(r *rand.Rand, rank, i int) StageSpec {
	total := 0
	for _, kw := range kindWeights {
		if kw.rank == 0 || kw.rank == rank {
			total += kw.w
		}
	}
	pick := r.Intn(total)
	var kind StageKind
	for _, kw := range kindWeights {
		if kw.rank != 0 && kw.rank != rank {
			continue
		}
		if pick < kw.w {
			kind = kw.kind
			break
		}
		pick -= kw.w
	}
	st := StageSpec{Kind: kind, P: randProducer(r, i), Q: randProducer(r, i)}
	if rank == 2 {
		st.Axis = r.Intn(2)
		st.BoxCond = r.Intn(4) == 0
	} else {
		st.BoxCond = r.Intn(8) == 0
	}
	return st
}

// randProducer picks the input image (1 in 4) or a random earlier stage,
// mirroring the original engine fuzzer's pick().
func randProducer(r *rand.Rand, i int) int {
	if i == 0 || r.Intn(4) == 0 {
		return -1
	}
	return r.Intn(i)
}
