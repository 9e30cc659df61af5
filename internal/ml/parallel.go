package ml

import (
	"runtime"
	"sync"
)

// maxGradShards is the fixed number of gradient shards a minibatch splits
// into. It is deliberately independent of FitConfig.Parallelism: the shard
// boundaries and the shard-order gradient reduction define the
// floating-point summation order, so any worker count — including 1 —
// produces bit-identical training. Workers beyond maxGradShards idle
// during the backward pass but still accelerate validation and inference.
const maxGradShards = 8

// parWorkers clamps a requested worker count (0 = GOMAXPROCS) to [1, n].
func parWorkers(par, n int) int {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	return par
}

// collectSampleAware gathers the layers whose randomness must be keyed by
// sample index (dropout) so sharded training stays deterministic.
func collectSampleAware(s *Sequential) []sampleAware {
	var out []sampleAware
	for _, l := range s.Layers {
		if sa, ok := l.(sampleAware); ok {
			out = append(out, sa)
		}
	}
	return out
}

// forEachSample runs fn(model, i) for every i in [0, n) across par workers,
// each on a weight-sharing replica (or the model itself when serial).
func (s *Sequential) forEachSample(n, par int, fn func(model *Sequential, i int)) {
	s.forEachSampleWorker(n, parWorkers(par, n), func(model *Sequential, _, i int) { fn(model, i) })
}

// forEachSampleWorker partitions [0, n) into `workers` contiguous chunks and
// runs chunk w on worker w's replica. Falls back to serial execution on the
// model itself when a layer cannot be replicated.
func (s *Sequential) forEachSampleWorker(n, workers int, fn func(model *Sequential, w, i int)) {
	if workers > 1 {
		if _, ok := s.replicate(); !ok {
			workers = 1
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(s, 0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		model, _ := s.replicate()
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(model *Sequential, w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(model, w, i)
			}
		}(model, w, lo, hi)
	}
	wg.Wait()
}

// replicaState is one training worker: a weight-sharing model replica plus
// its private parameter list, sample-aware layers, loss-grad scratch, and —
// on the batched path — the shard's input/probability/label arenas.
type replicaState struct {
	seq     *Sequential
	params  []*Param
	samples []sampleAware
	gbuf    *Tensor

	// Batch-major path arenas, allocated once per Fit and reused for every
	// shard this worker runs.
	bLayers []batchLayer
	bIn     *batchT
	bGrad   *batchT
	probs   []float64
	labels  []int
}

// engTask is one unit of pool work: a gradient shard (train) or a
// contiguous validation range (eval). It is a plain struct sent by value on
// a buffered channel, so dispatching a batch allocates nothing.
type engTask struct {
	train      bool
	si, S      int
	X          []*Tensor
	y          []int
	batch      []int
	sampleBase uint64
	lo, hi     int // eval range
	slot       int // eval result slot
}

// trainEngine runs data-parallel minibatch training: each batch splits into
// maxGradShards fixed shards, workers process shards on replicas whose
// gradient accumulators are rebound to per-shard buffers, and the buffers
// reduce into the shared model parameters in shard order.
//
// The engine owns a persistent worker pool: one goroutine per replica,
// started once per Fit and fed shard/eval tasks over a buffered channel, so
// the per-batch cost is a WaitGroup add and S channel sends instead of
// goroutine spawns and replica re-derivation. Fit must close() the engine
// to release the workers.
type trainEngine struct {
	model     *Sequential
	params    []*Param
	replicas  []*replicaState
	shardG    [][][]float64 // [shard][param][elem]
	shardLoss [maxGradShards]float64

	// batched selects the batch-major shard path (batch.go); decided once
	// per Fit, before the workers start.
	batched bool

	tasks       chan engTask
	wg          sync.WaitGroup
	evalCorrect [maxGradShards]int

	// serialDirect trains on the model itself in sample order when a
	// foreign layer prevents replication.
	serialDirect bool
	samples      []sampleAware
	gbuf         *Tensor
}

// uniformShape reports whether every tensor has X[0]'s shape — the
// precondition for packing samples into one batch tensor.
func uniformShape(X []*Tensor) bool {
	for _, x := range X[1:] {
		if x.Rows != X[0].Rows || x.Cols != X[0].Cols {
			return false
		}
	}
	return true
}

// newTrainEngine builds the engine for one Fit over X: replicas, per-shard
// gradient buffers, the batched-vs-per-sample decision, and (when more than
// one worker) the persistent pool.
func newTrainEngine(s *Sequential, par int, X []*Tensor) *trainEngine {
	e := &trainEngine{model: s, params: s.Params()}
	if _, ok := s.replicate(); !ok {
		e.serialDirect = true
		e.samples = collectSampleAware(s)
		return e
	}
	workers := parWorkers(par, maxGradShards)
	for w := 0; w < workers; w++ {
		rep, _ := s.replicate()
		e.replicas = append(e.replicas, &replicaState{
			seq:     rep,
			params:  rep.Params(),
			samples: collectSampleAware(rep),
			bLayers: batchLayers(rep),
		})
	}
	for si := 0; si < maxGradShards; si++ {
		bufs := make([][]float64, len(e.params))
		for pi, p := range e.params {
			bufs[pi] = make([]float64, len(p.G))
		}
		e.shardG = append(e.shardG, bufs)
	}
	e.batched = len(X) > 0 && uniformShape(X) &&
		e.replicas[0].bLayers != nil
	if workers > 1 {
		e.tasks = make(chan engTask, maxGradShards)
		for _, r := range e.replicas {
			// The channel is passed by value: close() nils e.tasks from the
			// owner goroutine, so workers must not read the field.
			go e.worker(r, e.tasks)
		}
	}
	return e
}

// worker drains the task channel on one replica until close().
func (e *trainEngine) worker(r *replicaState, tasks chan engTask) {
	for t := range tasks {
		if t.train {
			if e.batched {
				e.runShardBatched(r, t.si, t.S, t.X, t.y, t.batch, t.sampleBase)
			} else {
				e.runShard(r, t.si, t.S, t.X, t.y, t.batch, t.sampleBase)
			}
		} else {
			e.runEval(r, t)
		}
		e.wg.Done()
	}
}

// close releases the worker pool. The engine remains usable serially.
func (e *trainEngine) close() {
	if e.tasks != nil {
		close(e.tasks)
		e.tasks = nil
	}
}

// trainBatch forward/backwards every sample of the batch (indices into X/y)
// and leaves the summed gradients in the model's Param.G, returning the
// summed loss. sampleBase is the epoch-order index of batch[0], used to key
// per-sample randomness.
func (e *trainEngine) trainBatch(X []*Tensor, y []int, batch []int, sampleBase uint64) float64 {
	mTrainBatches.Inc()
	mTrainSamples.Add(int64(len(batch)))
	if e.serialDirect {
		var loss float64
		for bi, idx := range batch {
			for _, sa := range e.samples {
				sa.setSample(sampleBase + uint64(bi))
			}
			out := e.model.Forward(X[idx], true)
			l, grad := CrossEntropy(out.Data, y[idx])
			loss += l
			e.gbuf = ensure(e.gbuf, out.Rows, out.Cols)
			copy(e.gbuf.Data, grad)
			e.model.Backward(e.gbuf)
		}
		return loss
	}
	if e.batched {
		mTrainBatchedBatches.Inc()
	}
	S := len(batch)
	if S > maxGradShards {
		S = maxGradShards
	}
	for si := 0; si < S; si++ {
		e.shardLoss[si] = 0
		for pi := range e.params {
			zeroF(e.shardG[si][pi])
		}
	}
	if e.tasks == nil || S == 1 {
		r := e.replicas[0]
		for si := 0; si < S; si++ {
			if e.batched {
				e.runShardBatched(r, si, S, X, y, batch, sampleBase)
			} else {
				e.runShard(r, si, S, X, y, batch, sampleBase)
			}
		}
	} else {
		e.wg.Add(S)
		for si := 0; si < S; si++ {
			e.tasks <- engTask{train: true, si: si, S: S, X: X, y: y, batch: batch, sampleBase: sampleBase}
		}
		e.wg.Wait()
	}
	var loss float64
	for si := 0; si < S; si++ {
		loss += e.shardLoss[si]
		for pi, p := range e.params {
			axpy(1, e.shardG[si][pi], p.G)
		}
	}
	return loss
}

// runShard trains replica r on shard si of S: it rebinds the replica's
// gradient accumulators to the shard's buffers, then forward/backwards the
// shard's contiguous slice of the batch in order.
func (e *trainEngine) runShard(r *replicaState, si, S int, X []*Tensor, y []int, batch []int, sampleBase uint64) {
	lo, hi := si*len(batch)/S, (si+1)*len(batch)/S
	for pi, p := range r.params {
		p.G = e.shardG[si][pi]
	}
	var loss float64
	for bi := lo; bi < hi; bi++ {
		idx := batch[bi]
		for _, sa := range r.samples {
			sa.setSample(sampleBase + uint64(bi))
		}
		out := r.seq.Forward(X[idx], true)
		l, grad := CrossEntropy(out.Data, y[idx])
		loss += l
		r.gbuf = ensure(r.gbuf, out.Rows, out.Cols)
		copy(r.gbuf.Data, grad)
		r.seq.Backward(r.gbuf)
	}
	e.shardLoss[si] = loss
}

// runShardBatched trains replica r on shard si of S with the batch-major
// path: the shard's samples pack into one batch tensor, one fused
// forward/backward runs over the whole shard, and per-sample math inside
// the batched layers keeps the per-sample engine's accumulation order — so
// the shard gradients are bit-identical to runShard's.
func (e *trainEngine) runShardBatched(r *replicaState, si, S int, X []*Tensor, y []int, batch []int, sampleBase uint64) {
	lo, hi := si*len(batch)/S, (si+1)*len(batch)/S
	for pi, p := range r.params {
		p.G = e.shardG[si][pi]
	}
	B := hi - lo
	if cap(r.labels) < B {
		r.labels = make([]int, B)
	}
	r.labels = r.labels[:B]
	for s := 0; s < B; s++ {
		r.labels[s] = y[batch[lo+s]]
	}
	// Contiguous fast path: a shard whose samples are consecutive rows of a
	// packed arena (see Samples) trains on an aliased view of the arena —
	// no pack copy. Shuffled epochs rarely produce consecutive runs, but
	// in-order fits (and the equivalence tests) skip the copy entirely;
	// either way the batched layers read identical bytes, so gradients are
	// unchanged.
	var bx *batchT
	consec := true
	for s := 1; s < B; s++ {
		if batch[lo+s] != batch[lo]+s {
			consec = false
			break
		}
	}
	if consec {
		bx = aliasBatch(X, batch[lo], B)
	}
	if bx == nil {
		ref := X[batch[lo]]
		r.bIn = ensureB(r.bIn, B, ref.Rows, ref.Cols)
		for s := 0; s < B; s++ {
			copy(r.bIn.sample(s), X[batch[lo+s]].Data)
		}
		bx = r.bIn
	}
	base := sampleBase + uint64(lo)
	for _, bl := range r.bLayers {
		bx = bl.forwardBatch(bx, true, base)
	}
	r.probs = growF(r.probs, B*bx.Rows*bx.Cols)
	r.bGrad = ensureB(r.bGrad, B, bx.Rows, bx.Cols)
	loss := softmaxCEBatch(bx, r.labels, r.probs, r.bGrad)
	g := r.bGrad
	for i := len(r.bLayers) - 1; i >= 0; i-- {
		g = r.bLayers[i].backwardBatch(g)
	}
	e.shardLoss[si] = loss
}

// evalBatchMax caps how many consecutive samples one eval forward packs:
// big enough to amortize the batched kernels, small enough that the
// activation arenas stay cache-resident.
const evalBatchMax = 32

// evalRange scores X[lo:hi) on replica r and returns the top-1 correct
// count. On the batched path consecutive same-shape samples forward through
// the batched layers chunk by chunk, aliasing the sample arena directly
// when X is packed (see Samples) and gathering into the replica's batch
// buffer otherwise. Per the batch.go bit-identity contract each sample's
// logits equal Forward's, so the count matches the per-sample loop exactly.
func (e *trainEngine) evalRange(r *replicaState, X []*Tensor, y []int, lo, hi int) int {
	correct := 0
	if e.batched && r.bLayers != nil {
		for b := lo; b < hi; {
			ref := X[b]
			n := 1
			for b+n < hi && n < evalBatchMax &&
				X[b+n].Rows == ref.Rows && X[b+n].Cols == ref.Cols {
				n++
			}
			bx := aliasBatch(X, b, n)
			if bx == nil {
				r.bIn = ensureB(r.bIn, n, ref.Rows, ref.Cols)
				for s := 0; s < n; s++ {
					copy(r.bIn.sample(s), X[b+s].Data)
				}
				bx = r.bIn
			}
			for _, bl := range r.bLayers {
				bx = bl.forwardBatch(bx, false, 0)
			}
			C := bx.Rows * bx.Cols
			for s := 0; s < n; s++ {
				row := bx.Data[s*C : (s+1)*C]
				best := 0
				for c, v := range row {
					if v > row[best] {
						best = c
					}
				}
				if best == y[b+s] {
					correct++
				}
			}
			b += n
		}
		return correct
	}
	for i := lo; i < hi; i++ {
		out := r.seq.Forward(X[i], false)
		best := 0
		for c, v := range out.Data {
			if v > out.Data[best] {
				best = c
			}
		}
		if best == y[i] {
			correct++
		}
	}
	return correct
}

// accuracy evaluates top-1 accuracy on (X, y) using the engine's persistent
// workers and replicas — Fit's epoch validation path. The correct-count
// reduction is an integer sum, so the result equals AccuracyParallel for
// every worker count.
func (e *trainEngine) accuracy(X []*Tensor, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	if e.tasks == nil {
		if e.serialDirect {
			correct := 0
			for i := range X {
				out := e.model.Forward(X[i], false)
				best := 0
				for c, v := range out.Data {
					if v > out.Data[best] {
						best = c
					}
				}
				if best == y[i] {
					correct++
				}
			}
			return float64(correct) / float64(len(X))
		}
		return float64(e.evalRange(e.replicas[0], X, y, 0, len(X))) / float64(len(X))
	}
	W := len(e.replicas)
	if W > len(X) {
		W = len(X)
	}
	e.wg.Add(W)
	for w := 0; w < W; w++ {
		e.tasks <- engTask{X: X, y: y, lo: w * len(X) / W, hi: (w + 1) * len(X) / W, slot: w}
	}
	e.wg.Wait()
	total := 0
	for w := 0; w < W; w++ {
		total += e.evalCorrect[w]
	}
	return float64(total) / float64(len(X))
}

// runEval scores an eval task's sample range on the worker's replica.
func (e *trainEngine) runEval(r *replicaState, t engTask) {
	e.evalCorrect[t.slot] = e.evalRange(r, t.X, t.y, t.lo, t.hi)
}
