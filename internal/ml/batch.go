package ml

import "math"

// Batch-major training fast path.
//
// The per-sample training engine forwards and backwards one sample at a
// time, so every Dense layer is a gemv, every Conv1D a skinny GEMM, and the
// loop/call overhead of each layer is paid per sample. The batched path
// packs each gradient shard's samples into one contiguous batch tensor and
// runs a single fused forward/backward over the whole shard: Dense becomes
// one GemmNT/GemmNN pair, ReLU/MaxPool/Dropout and the softmax loss
// vectorize over the batch, and LSTM/GRU carry all of the shard's hidden
// states through each timestep together.
//
// Bit-identity contract: for every output element the batched layers invoke
// the exact kernels the per-sample layers invoke (same shapes, same
// per-element summation order), and every cross-sample accumulator (biases,
// weight gradients, the shard loss) is written in ascending sample order —
// the order the per-sample engine processes a shard. Trained weights are
// therefore bit-identical between the two engines at every Parallelism;
// TestTrainBatchedPerSampleEquivalence enforces this. The per-sample engine
// remains the only path for non-uniform input shapes and the tests'
// reference (FitConfig.perSample).

// batchT is a batch of N equally-shaped Rows×Cols samples in one
// contiguous sample-major buffer.
type batchT struct {
	N, Rows, Cols int
	Data          []float64
}

// sample returns the i-th sample's Rows×Cols block.
func (b *batchT) sample(i int) []float64 {
	sz := b.Rows * b.Cols
	return b.Data[i*sz : (i+1)*sz]
}

// ensureB is the batch arena primitive: it reshapes buf to n×rows×cols,
// reusing its storage when capacity suffices. Contents are unspecified.
func ensureB(buf *batchT, n, rows, cols int) *batchT {
	sz := n * rows * cols
	if buf == nil {
		return &batchT{N: n, Rows: rows, Cols: cols, Data: make([]float64, sz)}
	}
	buf.N, buf.Rows, buf.Cols = n, rows, cols
	buf.Data = growF(buf.Data, sz)
	return buf
}

// aliasBatch returns a read-only batch header over X[i0 : i0+n] when those
// tensors occupy consecutive rows of one contiguous arena (see Samples):
// the batch's Data is re-derived from X[i0]'s backing array, and every
// header is checked to alias the expected row. Returns nil when the run is
// not contiguous, in which case callers gather into their own buffer. The
// batched layers never write their input batch (they own separate output
// arenas), so handing them an aliased arena view is safe.
func aliasBatch(X []*Tensor, i0, n int) *batchT {
	ref := X[i0]
	sz := ref.Rows * ref.Cols
	if sz == 0 || cap(ref.Data) < n*sz {
		return nil
	}
	d := ref.Data[:n*sz]
	for k := 1; k < n; k++ {
		xk := X[i0+k]
		if xk.Rows != ref.Rows || xk.Cols != ref.Cols ||
			len(xk.Data) < sz || &xk.Data[0] != &d[k*sz] {
			return nil
		}
	}
	return &batchT{N: n, Rows: ref.Rows, Cols: ref.Cols, Data: d}
}

// batchLayer is a layer that can forward/backward a whole shard at once.
// base is the global sample index of batch element 0 (keys per-sample
// randomness). Returned batches are owned by the layer and remain valid
// until its next forwardBatch/backwardBatch call.
type batchLayer interface {
	forwardBatch(x *batchT, train bool, base uint64) *batchT
	backwardBatch(grad *batchT) *batchT
}

// batchLayers returns every layer's batchLayer, or nil if any layer does
// not support the batched path.
func batchLayers(s *Sequential) []batchLayer {
	out := make([]batchLayer, len(s.Layers))
	for i, l := range s.Layers {
		bl, ok := l.(batchLayer)
		if !ok {
			return nil
		}
		out[i] = bl
	}
	return out
}

// softmaxCEBatch computes the summed cross-entropy loss over the batch and
// writes dL/dlogits into grad, using probs as scratch. Per sample it is the
// exact float sequence of CrossEntropy, accumulated in sample order.
func softmaxCEBatch(logits *batchT, labels []int, probs []float64, grad *batchT) float64 {
	C := logits.Rows * logits.Cols
	var loss float64
	for s := 0; s < logits.N; s++ {
		row := logits.sample(s)
		p := probs[s*C : (s+1)*C]
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for i, v := range row {
			p[i] = math.Exp(v - max)
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		g := grad.sample(s)
		copy(g, p)
		g[labels[s]] -= 1
		loss += -math.Log(math.Max(p[labels[s]], 1e-12))
	}
	return loss
}

// ---- Dense ----

// forwardBatch computes Y = X·Wᵀ + b for the whole batch in one GemmNT —
// the same per-element dot order Forward uses for one sample.
func (d *Dense) forwardBatch(x *batchT, train bool, base uint64) *batchT {
	if x.Rows*x.Cols != d.In {
		panic("ml: Dense input size mismatch")
	}
	d.bX = x
	d.bOut = ensureB(d.bOut, x.N, 1, d.Out)
	for s := 0; s < x.N; s++ {
		copy(d.bOut.sample(s), d.b.W)
	}
	GemmNT(x.N, d.Out, d.In, x.Data, d.In, d.w.W, d.In, d.bOut.Data, d.Out, true)
	return d.bOut
}

// backwardBatch accumulates db/dW per sample in order (preserving the
// per-sample engine's accumulator sequence, including the zero-gradient
// skip) and computes all dx rows with one GemmNN.
func (d *Dense) backwardBatch(grad *batchT) *batchT {
	for s := 0; s < grad.N; s++ {
		g := grad.sample(s)
		xs := d.bX.sample(s)
		for o := 0; o < d.Out; o++ {
			gv := g[o]
			if gv == 0 {
				continue
			}
			d.b.G[o] += gv
			axpy(gv, xs, d.w.G[o*d.In:(o+1)*d.In])
		}
	}
	d.bDx = ensureB(d.bDx, grad.N, d.bX.Rows, d.bX.Cols)
	GemmNN(grad.N, d.In, d.Out, grad.Data, d.Out, d.w.W, d.In, d.bDx.Data, d.In, false)
	return d.bDx
}

// ---- ReLU ----

// forwardBatch rectifies the whole batch in one vectorized pass.
func (r *ReLU) forwardBatch(x *batchT, train bool, base uint64) *batchT {
	r.bOut = ensureB(r.bOut, x.N, x.Rows, x.Cols)
	r.bMask = growF(r.bMask, len(x.Data))
	reluFwd(x.Data, r.bOut.Data, r.bMask)
	return r.bOut
}

// backwardBatch masks the gradient in one vectorized pass.
func (r *ReLU) backwardBatch(grad *batchT) *batchT {
	r.bDx = ensureB(r.bDx, grad.N, grad.Rows, grad.Cols)
	vmulInto(r.bDx.Data, grad.Data, r.bMask[:len(grad.Data)])
	return r.bDx
}

// ---- Conv1D ----

// forwardBatch runs the strided-window GEMM per sample — identical calls to
// Forward, without re-entering the layer per sample.
func (c *Conv1D) forwardBatch(x *batchT, train bool, base uint64) *batchT {
	if x.Cols != c.In {
		panic("ml: Conv1D channel mismatch")
	}
	c.bX = x
	c.bOutT = c.outLen(x.Rows)
	if c.bOutT == 0 {
		panic("ml: Conv1D input shorter than kernel")
	}
	c.bOut = ensureB(c.bOut, x.N, c.bOutT, c.Out)
	kIn := c.Kernel * c.In
	for s := 0; s < x.N; s++ {
		out := c.bOut.sample(s)
		for t := 0; t < c.bOutT; t++ {
			copy(out[t*c.Out:(t+1)*c.Out], c.b.W)
		}
		GemmNT(c.bOutT, c.Out, kIn, x.sample(s), c.Stride*c.In, c.w.W, kIn, out, c.Out, true)
	}
	return c.bOut
}

// backwardBatch runs the fused sparse backward scan sample by sample in
// order, mirroring Backward's accumulator sequence exactly.
func (c *Conv1D) backwardBatch(grad *batchT) *batchT {
	c.bDx = ensureB(c.bDx, grad.N, c.bX.Rows, c.bX.Cols)
	zeroF(c.bDx.Data)
	kIn := c.Kernel * c.In
	for s := 0; s < grad.N; s++ {
		conv1dBackward(grad.sample(s), c.bX.sample(s), c.bDx.sample(s),
			c.bOutT, c.Out, kIn, c.Stride*c.In, c.w.W, c.w.G, c.b.G)
	}
	return c.bDx
}

// ---- MaxPool1D ----

// maxPool1D pools one rows×cols sample into out (outT×cols), recording
// window argmax rows. Each window seeds from its first row and then folds
// the remaining rows with maxIdxInto, a fused value+argmax blend (SIMD on
// amd64) whose strict compare keeps ties and NaN on the earlier row — the
// classic sequential first-strict-improvement argmax, one contiguous row
// pass per window row.
func maxPool1D(x []float64, rows, cols, size, outT int, out []float64, argmax []int) {
	for t := 0; t < outT; t++ {
		lo := t * size
		hi := lo + size
		if hi > rows || t == outT-1 {
			hi = rows
		}
		outRow := out[t*cols : (t+1)*cols]
		amRow := argmax[t*cols : (t+1)*cols]
		copy(outRow, x[lo*cols:(lo+1)*cols])
		for c := range amRow {
			amRow[c] = lo
		}
		for r := lo + 1; r < hi; r++ {
			maxIdxInto(outRow, amRow, x[r*cols:(r+1)*cols], r)
		}
	}
}

// poolOutT returns the pooled length for an input of the given rows.
func (m *MaxPool1D) poolOutT(rows int) int {
	if m.Size <= 0 {
		panic("ml: MaxPool1D size must be positive")
	}
	outT := rows / m.Size
	if outT == 0 {
		outT = 1 // degenerate: single window over everything available
	}
	return outT
}

// forwardBatch pools every sample with the shared vectorized kernel.
func (m *MaxPool1D) forwardBatch(x *batchT, train bool, base uint64) *batchT {
	outT := m.poolOutT(x.Rows)
	m.bInT = x.Rows
	m.bOut = ensureB(m.bOut, x.N, outT, x.Cols)
	if cap(m.bArg) < x.N*outT*x.Cols {
		m.bArg = make([]int, x.N*outT*x.Cols)
	}
	m.bArg = m.bArg[:x.N*outT*x.Cols]
	for s := 0; s < x.N; s++ {
		maxPool1D(x.sample(s), x.Rows, x.Cols, m.Size, outT,
			m.bOut.sample(s), m.bArg[s*outT*x.Cols:(s+1)*outT*x.Cols])
	}
	return m.bOut
}

// backwardBatch routes each sample's gradients to its argmax positions.
func (m *MaxPool1D) backwardBatch(grad *batchT) *batchT {
	m.bDx = ensureB(m.bDx, grad.N, m.bInT, grad.Cols)
	zeroF(m.bDx.Data)
	per := grad.Rows * grad.Cols
	for s := 0; s < grad.N; s++ {
		gs := grad.sample(s)
		dxs := m.bDx.sample(s)
		am := m.bArg[s*per : (s+1)*per]
		for t := 0; t < grad.Rows; t++ {
			for c := 0; c < grad.Cols; c++ {
				g := gs[t*grad.Cols+c]
				dxs[am[t*grad.Cols+c]*grad.Cols+c] += g
			}
		}
	}
	return m.bDx
}

// ---- Dropout ----

// forwardBatch masks each sample with the stream keyed by base+s — the same
// key setSample gives the per-sample engine for the same batch position.
func (d *Dropout) forwardBatch(x *batchT, train bool, base uint64) *batchT {
	d.bOut = ensureB(d.bOut, x.N, x.Rows, x.Cols)
	if !train || d.Rate == 0 {
		d.bMask = nil
		copy(d.bOut.Data, x.Data)
		return d.bOut
	}
	d.bMask = growF(d.bMask, len(x.Data))
	per := x.Rows * x.Cols
	scale := 1 / (1 - d.Rate)
	for s := 0; s < x.N; s++ {
		rng := d.maskStream(base + uint64(s))
		xs := x.sample(s)
		out := d.bOut.sample(s)
		mask := d.bMask[s*per : (s+1)*per]
		for i, v := range xs {
			if rng.Float64() < d.Rate {
				out[i] = 0
				mask[i] = 0
			} else {
				mask[i] = scale
				out[i] = v * scale
			}
		}
	}
	return d.bOut
}

// backwardBatch applies the saved masks in one vectorized pass.
func (d *Dropout) backwardBatch(grad *batchT) *batchT {
	d.bDx = ensureB(d.bDx, grad.N, grad.Rows, grad.Cols)
	if d.bMask == nil {
		copy(d.bDx.Data, grad.Data)
		return d.bDx
	}
	vmulInto(d.bDx.Data, grad.Data, d.bMask[:len(grad.Data)])
	return d.bDx
}

// ---- LSTM ----

// forwardBatch runs the input projection as one GEMM per sample and then
// carries the whole batch's hidden and cell state through each timestep
// together, so the recurrent weight panel is reused across samples within a
// step. Per sample the float sequence is exactly Forward's.
func (l *LSTM) forwardBatch(x *batchT, train bool, base uint64) *batchT {
	if x.Cols != l.In {
		panic("ml: LSTM input channel mismatch")
	}
	B, T, H := x.N, x.Rows, l.Hidden
	l.bX = x
	l.bT = T
	l.bPre = growF(l.bPre, B*T*4*H)
	l.bGates = growF(l.bGates, B*T*4*H)
	l.bCells = growF(l.bCells, B*T*H)
	l.bHids = growF(l.bHids, B*T*H)
	l.h0 = growF(l.h0, H)
	zeroF(l.h0)

	for s := 0; s < B; s++ {
		pre := l.bPre[s*T*4*H : (s+1)*T*4*H]
		for t := 0; t < T; t++ {
			copy(pre[t*4*H:(t+1)*4*H], l.b.W)
		}
		GemmNT(T, 4*H, l.In, x.sample(s), l.In, l.wx.W, l.In, pre, 4*H, true)
	}
	for t := 0; t < T; t++ {
		for s := 0; s < B; s++ {
			hPrev, cPrev := l.h0, l.h0
			if t > 0 {
				hPrev = l.bHids[s*T*H+(t-1)*H : s*T*H+t*H]
				cPrev = l.bCells[s*T*H+(t-1)*H : s*T*H+t*H]
			}
			pre := l.bPre[s*T*4*H+t*4*H : s*T*4*H+(t+1)*4*H]
			gemv(4*H, H, l.wh.W, H, hPrev, pre)
			g := l.bGates[s*T*4*H+t*4*H : s*T*4*H+(t+1)*4*H]
			for h := 0; h < H; h++ {
				g[h] = sigmoid(pre[h])
				g[H+h] = sigmoid(pre[H+h])
				g[2*H+h] = sigmoid(pre[2*H+h])
				g[3*H+h] = math.Tanh(pre[3*H+h])
			}
			cRow := l.bCells[s*T*H+t*H : s*T*H+(t+1)*H]
			hRow := l.bHids[s*T*H+t*H : s*T*H+(t+1)*H]
			for h := 0; h < H; h++ {
				cRow[h] = g[H+h]*cPrev[h] + g[h]*g[3*H+h]
				hRow[h] = g[2*H+h] * math.Tanh(cRow[h])
			}
		}
	}
	l.bOut = ensureB(l.bOut, B, 1, H)
	for s := 0; s < B; s++ {
		copy(l.bOut.sample(s), l.bHids[s*T*H+(T-1)*H:s*T*H+T*H])
	}
	return l.bOut
}

// backwardBatch runs the BPTT recurrence timestep-major over the batch's
// dh/dc state, then reduces parameter and input gradients per sample in
// ascending order — the accumulator sequence of the per-sample engine.
func (l *LSTM) backwardBatch(grad *batchT) *batchT {
	B, T, H := grad.N, l.bT, l.Hidden
	l.bDh = growF(l.bDh, B*H)
	l.bDc = growF(l.bDc, B*H)
	copy(l.bDh, grad.Data)
	zeroF(l.bDc)

	for t := T - 1; t >= 0; t-- {
		for s := 0; s < B; s++ {
			g := l.bGates[s*T*4*H+t*4*H : s*T*4*H+(t+1)*4*H]
			cRow := l.bCells[s*T*H+t*H : s*T*H+(t+1)*H]
			cPrev := l.h0
			if t > 0 {
				cPrev = l.bCells[s*T*H+(t-1)*H : s*T*H+t*H]
			}
			dh := l.bDh[s*H : (s+1)*H]
			dc := l.bDc[s*H : (s+1)*H]
			dpre := l.bPre[s*T*4*H+t*4*H : s*T*4*H+(t+1)*4*H]
			for h := 0; h < H; h++ {
				tc := math.Tanh(cRow[h])
				do := dh[h] * tc
				dct := dc[h] + dh[h]*g[2*H+h]*(1-tc*tc)
				di := dct * g[3*H+h]
				df := dct * cPrev[h]
				dg := dct * g[h]
				dc[h] = dct * g[H+h]

				dpre[h] = di * g[h] * (1 - g[h])
				dpre[H+h] = df * g[H+h] * (1 - g[H+h])
				dpre[2*H+h] = do * g[2*H+h] * (1 - g[2*H+h])
				dpre[3*H+h] = dg * (1 - g[3*H+h]*g[3*H+h])
			}
			zeroF(dh)
			gemvT(4*H, H, l.wh.W, H, dpre, dh)
		}
	}

	l.bDx = ensureB(l.bDx, B, T, l.In)
	zeroF(l.bDx.Data)
	for s := 0; s < B; s++ {
		pre := l.bPre[s*T*4*H : (s+1)*T*4*H]
		hids := l.bHids[s*T*H : (s+1)*T*H]
		for t := 0; t < T; t++ {
			axpy(1, pre[t*4*H:(t+1)*4*H], l.b.G)
		}
		gemmATB(T, 4*H, l.In, pre, 4*H, l.bX.sample(s), l.In, l.wx.G, l.In)
		GemmNN(T, l.In, 4*H, pre, 4*H, l.wx.W, l.In, l.bDx.sample(s), l.In, true)
		if T > 1 {
			gemmATB(T-1, 4*H, H, pre[4*H:], 4*H, hids, H, l.wh.G, H)
		}
	}
	return l.bDx
}

// ---- GRU ----

// forwardBatch mirrors LSTM's: one input-projection GEMM per sample, then a
// timestep-major recurrence over the batch's hidden state.
func (g *GRU) forwardBatch(x *batchT, train bool, base uint64) *batchT {
	if x.Cols != g.In {
		panic("ml: GRU input channel mismatch")
	}
	B, T, H := x.N, x.Rows, g.Hidden
	g.bX = x
	g.bT = T
	g.bXa = growF(g.bXa, B*T*3*H)
	g.bGates = growF(g.bGates, B*T*3*H)
	g.bHpre = growF(g.bHpre, B*T*H)
	g.bHids = growF(g.bHids, B*T*H)
	g.ha = growF(g.ha, 3*H)
	g.h0 = growF(g.h0, H)
	zeroF(g.h0)

	for s := 0; s < B; s++ {
		xa := g.bXa[s*T*3*H : (s+1)*T*3*H]
		for t := 0; t < T; t++ {
			copy(xa[t*3*H:(t+1)*3*H], g.bx.W)
		}
		GemmNT(T, 3*H, g.In, x.sample(s), g.In, g.wx.W, g.In, xa, 3*H, true)
	}
	for t := 0; t < T; t++ {
		for s := 0; s < B; s++ {
			hPrev := g.h0
			if t > 0 {
				hPrev = g.bHids[s*T*H+(t-1)*H : s*T*H+t*H]
			}
			xa := g.bXa[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			ha := g.ha
			copy(ha, g.bh.W)
			gemv(3*H, H, g.wh.W, H, hPrev, ha)
			gt := g.bGates[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			hRow := g.bHids[s*T*H+t*H : s*T*H+(t+1)*H]
			hp := g.bHpre[s*T*H+t*H : s*T*H+(t+1)*H]
			for h := 0; h < H; h++ {
				r := sigmoid(xa[h] + ha[h])
				z := sigmoid(xa[H+h] + ha[H+h])
				hp[h] = ha[2*H+h]
				n := math.Tanh(xa[2*H+h] + r*hp[h])
				gt[h], gt[H+h], gt[2*H+h] = r, z, n
				hRow[h] = (1-z)*n + z*hPrev[h]
			}
		}
	}
	g.bOut = ensureB(g.bOut, B, 1, H)
	for s := 0; s < B; s++ {
		copy(g.bOut.sample(s), g.bHids[s*T*H+(T-1)*H:s*T*H+T*H])
	}
	return g.bOut
}

// backwardBatch runs the BPTT recurrence timestep-major (the whole batch's
// dh/dhPrev arrays swap roles each step, as the per-sample pair does), then
// reduces gradients per sample in ascending order.
func (g *GRU) backwardBatch(grad *batchT) *batchT {
	B, T, H := grad.N, g.bT, g.Hidden
	g.bDha = growF(g.bDha, B*T*3*H)
	g.bDh = growF(g.bDh, B*H)
	g.bDhp = growF(g.bDhp, B*H)
	dhB, dhpB := g.bDh, g.bDhp
	copy(dhB, grad.Data)

	for t := T - 1; t >= 0; t-- {
		for s := 0; s < B; s++ {
			gt := g.bGates[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			hp := g.bHpre[s*T*H+t*H : s*T*H+(t+1)*H]
			hPrev := g.h0
			if t > 0 {
				hPrev = g.bHids[s*T*H+(t-1)*H : s*T*H+t*H]
			}
			dxa := g.bXa[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			dha := g.bDha[s*T*3*H+t*3*H : s*T*3*H+(t+1)*3*H]
			dh := dhB[s*H : (s+1)*H]
			dhPrev := dhpB[s*H : (s+1)*H]
			zeroF(dhPrev)
			for h := 0; h < H; h++ {
				r, z, n := gt[h], gt[H+h], gt[2*H+h]
				dn := dh[h] * (1 - z)
				dz := dh[h] * (hPrev[h] - n)
				dhPrev[h] += dh[h] * z

				dnPre := dn * (1 - n*n)
				dxa[2*H+h] = dnPre
				dha[2*H+h] = dnPre * r
				dr := dnPre * hp[h]

				drPre := dr * r * (1 - r)
				dxa[h] = drPre
				dha[h] = drPre

				dzPre := dz * z * (1 - z)
				dxa[H+h] = dzPre
				dha[H+h] = dzPre
			}
			gemvT(3*H, H, g.wh.W, H, dha, dhPrev)
		}
		dhB, dhpB = dhpB, dhB
	}

	g.bDx = ensureB(g.bDx, B, T, g.In)
	zeroF(g.bDx.Data)
	for s := 0; s < B; s++ {
		xa := g.bXa[s*T*3*H : (s+1)*T*3*H]
		dha := g.bDha[s*T*3*H : (s+1)*T*3*H]
		hids := g.bHids[s*T*H : (s+1)*T*H]
		for t := 0; t < T; t++ {
			axpy(1, xa[t*3*H:(t+1)*3*H], g.bx.G)
			axpy(1, dha[t*3*H:(t+1)*3*H], g.bh.G)
		}
		gemmATB(T, 3*H, g.In, xa, 3*H, g.bX.sample(s), g.In, g.wx.G, g.In)
		GemmNN(T, g.In, 3*H, xa, 3*H, g.wx.W, g.In, g.bDx.sample(s), g.In, true)
		if T > 1 {
			gemmATB(T-1, 3*H, H, dha[3*H:], 3*H, hids, H, g.wh.G, H)
		}
	}
	return g.bDx
}
