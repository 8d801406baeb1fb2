package distrib

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"computecovid19/internal/ag"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
)

func TestRingAllReduceSums(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		length := 13
		vecs := make([][]float32, n)
		want := make([]float32, length)
		for i := range vecs {
			vecs[i] = make([]float32, length)
			for j := range vecs[i] {
				vecs[i][j] = float32(i*100 + j)
				want[j] += vecs[i][j]
			}
		}
		RingAllReduce(vecs)
		for i := range vecs {
			for j := range want {
				if math.Abs(float64(vecs[i][j]-want[j])) > 1e-3 {
					t.Fatalf("n=%d node %d elem %d = %v, want %v", n, i, j, vecs[i][j], want[j])
				}
			}
		}
	}
}

func TestRingAllReduceSingleNodeNoop(t *testing.T) {
	v := [][]float32{{1, 2, 3}}
	RingAllReduce(v)
	if v[0][0] != 1 || v[0][2] != 3 {
		t.Fatal("single-node all-reduce must be a no-op")
	}
}

func TestRingAllReduceShortVector(t *testing.T) {
	// Vector shorter than the node count: some chunks are empty.
	vecs := [][]float32{{1}, {2}, {3}, {4}}
	RingAllReduce(vecs)
	for i := range vecs {
		if vecs[i][0] != 10 {
			t.Fatalf("node %d = %v, want 10", i, vecs[i][0])
		}
	}
}

func TestAllReduceMean(t *testing.T) {
	vecs := [][]float32{{2, 4}, {4, 8}}
	AllReduceMean(vecs)
	if vecs[0][0] != 3 || vecs[1][1] != 6 {
		t.Fatalf("mean wrong: %v", vecs)
	}
}

// Property: all nodes agree after all-reduce, for any sizes.
func TestRingAllReduceAgreementProperty(t *testing.T) {
	f := func(seed int64, nRaw, lenRaw uint8) bool {
		n := int(nRaw%7) + 2
		length := int(lenRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		vecs := make([][]float32, n)
		for i := range vecs {
			vecs[i] = make([]float32, length)
			for j := range vecs[i] {
				vecs[i][j] = float32(rng.NormFloat64())
			}
		}
		RingAllReduce(vecs)
		for i := 1; i < n; i++ {
			for j := 0; j < length; j++ {
				if math.Abs(float64(vecs[i][j]-vecs[0][j])) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// toyModel is a tiny regression network for trainer tests.
type toyModel struct{ *nn.Sequential }

func newToyFactory() func() Model {
	return func() Model {
		rng := rand.New(rand.NewSource(42)) // fixed: deterministic factory
		return &toyModel{nn.NewSequential(
			nn.NewLinear(rng, 2, 6, 0.5),
			&nn.Func{F: ag.Tanh},
			nn.NewLinear(rng, 6, 1, 0.5),
		)}
	}
}

func toyLoss(m Model, xs, ys []*tensor.Tensor) *ag.Value {
	mod := m.(*toyModel)
	n := len(xs)
	xb := tensor.New(n, 2)
	yb := tensor.New(n, 1)
	for i := range xs {
		copy(xb.Data[i*2:(i+1)*2], xs[i].Data)
		yb.Data[i] = ys[i].Data[0]
	}
	return ag.MSELoss(mod.Forward(ag.Const(xb)), ag.Const(yb))
}

func toyData(rng *rand.Rand, n int) (xs, ys []*tensor.Tensor) {
	for i := 0; i < n; i++ {
		x := tensor.New(2).RandN(rng, 0, 1)
		y := tensor.FromSlice([]float32{x.Data[0]*2 - x.Data[1]}, 1)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return
}

func TestTrainerKeepsReplicasInSync(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTrainer(newToyFactory(), 4, 0.01, toyLoss)
	xs, ys := toyData(rng, 8)
	for i := 0; i < 5; i++ {
		tr.Step(xs, ys)
	}
	if !tr.InSync(1e-6) {
		t.Fatal("replicas drifted apart after synchronized steps")
	}
}

func TestTrainerMatchesSingleNode(t *testing.T) {
	// DDP invariant: N nodes on a global batch must produce the same
	// parameters as one node on the same batch (up to float reassociation).
	rng := rand.New(rand.NewSource(2))
	xs, ys := toyData(rng, 8)

	t1 := NewTrainer(newToyFactory(), 1, 0.01, toyLoss)
	t4 := NewTrainer(newToyFactory(), 4, 0.01, toyLoss)
	for i := 0; i < 10; i++ {
		t1.Step(xs, ys)
		t4.Step(xs, ys)
	}
	p1 := t1.Master().Params()
	p4 := t4.Master().Params()
	for i := range p1 {
		if !p1[i].T.AllClose(p4[i].T, 1e-3) {
			t.Fatalf("param %d differs between 1-node and 4-node training: max diff %v",
				i, p1[i].T.MaxAbsDiff(p4[i].T))
		}
	}
}

func TestTrainerLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewTrainer(newToyFactory(), 2, 0.02, toyLoss)
	xs, ys := toyData(rng, 16)
	first := tr.Step(xs, ys)
	var last float64
	for i := 0; i < 150; i++ {
		last = tr.Step(xs, ys)
	}
	if last > first/10 {
		t.Fatalf("distributed training did not converge: first %v, last %v", first, last)
	}
}

func TestTrainerSmallBatchManyNodes(t *testing.T) {
	// Global batch smaller than node count: idle nodes must not break
	// synchronization.
	rng := rand.New(rand.NewSource(4))
	tr := NewTrainer(newToyFactory(), 4, 0.01, toyLoss)
	xs, ys := toyData(rng, 2)
	tr.Step(xs, ys)
	if !tr.InSync(1e-6) {
		t.Fatal("idle nodes broke synchronization")
	}
}

func TestClusterModelMatchesTable3Shape(t *testing.T) {
	c := PaperCluster()
	// Single node, batch 1, 50 epochs: paper reports 15:14:46 ≈ 54886 s.
	got := c.TrainingSeconds(1, 1, 50)
	if got < 0.7*54886 || got > 1.3*54886 {
		t.Fatalf("1-node 50-epoch projection = %.0fs, paper 54886s", got)
	}
	// 4 nodes batch 8: 2:27:49 ≈ 8869 s.
	got = c.TrainingSeconds(4, 8, 50)
	if got < 0.5*8869 || got > 1.6*8869 {
		t.Fatalf("4-node batch-8 projection = %.0fs, paper 8869s", got)
	}
	// 8 nodes batch 64: 1:12:24 ≈ 4344 s.
	got = c.TrainingSeconds(8, 64, 50)
	if got < 0.5*4344 || got > 1.7*4344 {
		t.Fatalf("8-node batch-64 projection = %.0fs, paper 4344s", got)
	}
}

func TestClusterModelSublinearSpeedup(t *testing.T) {
	c := PaperCluster()
	// Fixed global batch 8: speedup grows with nodes but sub-linearly.
	s4 := c.Speedup(4, 8)
	s8 := c.Speedup(8, 8)
	if !(s4 > 1 && s8 > s4) {
		t.Fatalf("speedups not increasing: s4=%v s8=%v", s4, s8)
	}
	if s8 >= 8*8 { // global batch 8 gives at most 8× from batching + 8× nodes
		t.Fatalf("speedup implausibly superlinear: %v", s8)
	}
	// Doubling nodes at fixed per-node batch must not double throughput
	// (synchronization cost): epoch(8 nodes, batch 16) > epoch(4, 8)/2.
	if c.EpochSeconds(8, 16) <= c.EpochSeconds(4, 8)/2 {
		t.Fatal("model shows no synchronization penalty")
	}
	// 100 epochs take twice as long as 50.
	if math.Abs(c.TrainingSeconds(4, 8, 100)-2*c.TrainingSeconds(4, 8, 50)) > 1e-6 {
		t.Fatal("epochs must scale linearly")
	}
}

// NaiveAllReduce sums the per-node vectors through a central node
// (gather to node 0, reduce, broadcast) and leaves the result in every
// vector: the parameter-server oracle for RingAllReduce.
func NaiveAllReduce(vectors [][]float32) {
	n := len(vectors)
	if n <= 1 {
		return
	}
	root := vectors[0]
	for _, v := range vectors[1:] {
		for i, x := range v {
			root[i] += x
		}
	}
	for _, v := range vectors[1:] {
		copy(v, root)
	}
}

func TestNaiveAllReduceMatchesRing(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n, length := 5, 33
	a := make([][]float32, n)
	b := make([][]float32, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float32, length)
		b[i] = make([]float32, length)
		for j := range a[i] {
			v := float32(rng.NormFloat64())
			a[i][j], b[i][j] = v, v
		}
	}
	RingAllReduce(a)
	NaiveAllReduce(b)
	for i := range a {
		for j := range a[i] {
			if math.Abs(float64(a[i][j]-b[i][j])) > 1e-4 {
				t.Fatalf("ring and naive disagree at node %d elem %d: %v vs %v",
					i, j, a[i][j], b[i][j])
			}
		}
	}
}

// BenchmarkAblation_RingAllReduce times one ring all-reduce of a 64 Ki
// float32 vector across 8 in-process nodes.
func BenchmarkAblation_RingAllReduce(b *testing.B) {
	const nodes, length = 8, 1 << 16
	vecs := make([][]float32, nodes)
	for i := range vecs {
		vecs[i] = make([]float32, length)
		for j := range vecs[i] {
			vecs[i][j] = float32(i + j)
		}
	}
	b.SetBytes(int64(4 * length * nodes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RingAllReduce(vecs)
	}
}
