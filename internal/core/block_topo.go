package core

import "math/bits"

// This file holds the topology-generic blocked kernels: the complete-
// graph chunk kernels, and the lane loops of block.go generalized over
// (a) the opinion representation — int32 absolute values or the compact
// base-relative byte slab — and (b) the structure backend — CSR arrays
// when the run has a materialized graph, Topology interface calls when
// it runs an implicit family. The lane loops' draw structure (Lemire
// thresholds, half-word spare, one-step lookahead) is transcribed from
// the tuned CSR loops line for line, so a trial consumes its stream
// identically on every backend × representation combination and
// trajectories stay byte-identical — the property the equivalence tests
// pin. The tuned CSR + int32 lane loops in block.go still serve that
// combination; the complete-graph chunks here serve every combination.

// opcell is the opinion-slab element type: int32 for the absolute
// representation, uint8 for the compact base-relative one.
type opcell interface{ ~int32 | ~uint8 }

// slabOf returns the state's live opinion slab at the requested
// element type. The type switch is on the type parameter, so each
// instantiation reduces to a single field load.
func slabOf[O opcell](s *State) []O {
	var z O
	if _, ok := any(z).(int32); ok {
		return any(s.opinions).([]O)
	}
	return any(s.opb).([]O)
}

// biasOf returns the offset mapping a slab value to its counts index:
// counts[int32(op[v]) - bias]. The int32 representation stores
// absolute opinions (bias = base); the byte representation stores
// base-relative ones (bias = 0).
func biasOf[O opcell](s *State) int32 {
	var z O
	if _, ok := any(z).(int32); ok {
		return s.base
	}
	return 0
}

// chunkCompleteSmallG is the magic-divide K_n kernel (see
// chunkComplete), generic over the opinion representation. It touches
// no adjacency at all, so the one source serves CSR and implicit
// backends alike.
func chunkCompleteSmallG[O opcell](b *blockRun, row *blockRow) {
	s := row.s
	st := &row.stream
	op := slabOf[O](s)
	counts := s.counts
	bias := biasOf[O](s)
	m := uint32(b.m)
	d, magic := b.d, b.magic
	thresh := -m % m // (2^32 - m) mod m
	probe := row.probe != nil
	limit := b.chunkLimit(s)
	spare, haveSpare := row.spare, row.haveSpare
	var drawn, committed, active, sumDelta int64
	for drawn < limit {
		var x uint32
		if haveSpare {
			x, haveSpare = spare, false
		} else {
			word := st.Uint64()
			x, spare, haveSpare = uint32(word), uint32(word>>32), true
		}
		prod := uint64(x) * uint64(m)
		if uint32(prod) < thresh {
			continue // rejected half-word: biased residue, redraw
		}
		q := uint64(prod >> 32)
		drawn++
		v := q * magic >> 40
		w := q - v*d
		if w >= v {
			w++
		}
		xv := op[v]
		xw := op[w]
		if xv == xw {
			if probe {
				row.batch.Idle++
			}
			continue
		}
		active++
		var nw O
		if xv < xw {
			nw = xv + 1
			sumDelta++
		} else {
			nw = xv - 1
			sumDelta--
		}
		op[v] = nw
		i := int32(nw) - bias
		j := int32(xv) - bias
		counts[i]++
		counts[j]--
		if probe {
			row.batch.Active++
		}
		if counts[i] == 1 || counts[j] == 0 {
			s.addSteps(drawn - committed)
			committed = drawn
			b.syncCompleteState(s, sumDelta)
			sumDelta = 0
			s.supVer++
			if b.afterSupport(row) {
				break
			}
		}
	}
	s.addSteps(drawn - committed)
	b.syncCompleteState(s, sumDelta)
	row.spare, row.haveSpare = spare, haveSpare
	row.windowDraws += drawn
	row.windowActive += active
}

// chunkCompleteBigG is the K_n kernel above the magic-divide gate,
// generic over the opinion representation: full-word draws, hardware
// divide, general SetOpinion path (absOff converts a slab value back
// to the absolute opinion).
func chunkCompleteBigG[O opcell](b *blockRun, row *blockRow) {
	s := row.s
	st := &row.stream
	op := slabOf[O](s)
	absOff := int(s.base - biasOf[O](s))
	m, d := b.m, b.d
	probe := row.probe != nil
	limit := b.chunkLimit(s)
	var pending int64
	for i := int64(0); i < limit; i++ {
		x := st.Uint64()
		hi, lo := bits.Mul64(x, m)
		if lo < m {
			hi = st.Uint64nSlow(hi, lo, m)
		}
		v := hi / d
		w := hi - v*d
		if w >= v {
			w++
		}
		pending++
		xv := op[v]
		if xv == op[w] {
			if probe {
				row.batch.Idle++
			}
			continue
		}
		row.windowActive++
		s.addSteps(pending)
		pending = 0
		if probe {
			row.batch.Active++
		}
		if xv < op[w] {
			s.SetOpinion(int(v), int(xv)+absOff+1)
		} else {
			s.SetOpinion(int(v), int(xv)+absOff-1)
		}
		if s.SupportVersion() != row.prevVer && b.afterSupport(row) {
			row.windowDraws += i + 1
			return
		}
	}
	s.addSteps(pending)
	row.windowDraws += limit
}

// drawLaneTopoVertex is drawLaneVertex with the degree and neighbour
// lookups resolved through the CSR arrays when present (the compact
// CSR combination) and the Topology interface otherwise. The Lemire
// structure — eager threshold on the fixed bound n, lazy threshold in
// the ambiguous band for the varying degree bound, half-word spare —
// is identical, so stream consumption matches the tuned loop draw for
// draw, and the sorted-neighbour contract makes the resulting w
// identical too.
func drawLaneTopoVertex(b *blockRun, row *blockRow) {
	st := &row.stream
	n32 := uint32(b.un)
	threshN := -n32 % n32 // (2^32 - n) mod n
	var v uint32
	for {
		var x uint32
		if row.haveSpare {
			x, row.haveSpare = row.spare, false
		} else {
			word := st.Uint64()
			x, row.spare, row.haveSpare = uint32(word), uint32(word>>32), true
		}
		prod := uint64(x) * uint64(n32)
		if uint32(prod) >= threshN {
			v = uint32(prod >> 32)
			break
		}
	}
	var d32 uint32
	var o int64
	if b.off != nil {
		o = b.off[v]
		d32 = uint32(b.off[v+1] - o)
	} else {
		d32 = uint32(b.topo.Degree(int(v)))
	}
	var ni uint32
	for {
		var x uint32
		if row.haveSpare {
			x, row.haveSpare = row.spare, false
		} else {
			word := st.Uint64()
			x, row.spare, row.haveSpare = uint32(word), uint32(word>>32), true
		}
		prod := uint64(x) * uint64(d32)
		lo := uint32(prod)
		if lo >= d32 || lo >= -d32%d32 {
			ni = uint32(prod >> 32)
			break
		}
	}
	row.nextV = int32(v)
	if b.off != nil {
		row.nextW = b.adj[o+int64(ni)]
	} else {
		row.nextW = int32(b.topo.Neighbor(int(v), int(ni)))
	}
	row.nextDeg = int64(d32)
}

// drawLaneTopoEdge is drawLaneEdge with the arc resolved through the
// CSR arrays when present and the topology otherwise (vertex-major arc
// order on both, so the same index yields the same pair): on a regular
// run the tail is arcTail(a) and the head adj[a] or Neighbor(v, a−v·d),
// with no Arc or Degree call; on an irregular one the CSR tails/heads
// arrays or the topology's arc map.
func drawLaneTopoEdge(b *blockRun, row *blockRow) {
	st := &row.stream
	a32 := uint32(b.arcs)
	threshA := -a32 % a32 // (2^32 - arcs) mod arcs
	var ai uint32
	for {
		var x uint32
		if row.haveSpare {
			x, row.haveSpare = row.spare, false
		} else {
			word := st.Uint64()
			x, row.spare, row.haveSpare = uint32(word), uint32(word>>32), true
		}
		prod := uint64(x) * uint64(a32)
		if uint32(prod) >= threshA {
			ai = uint32(prod >> 32)
			break
		}
	}
	if b.deg != 0 {
		v := arcTail(ai, b.recip)
		row.nextV = int32(v)
		if b.adj != nil {
			row.nextW = b.adj[ai]
		} else {
			row.nextW = int32(b.topo.Neighbor(int(v), int(ai-v*b.deg)))
		}
		row.nextDeg = int64(b.deg)
		return
	}
	if b.tails != nil {
		v := b.tails[ai]
		row.nextV = v
		row.nextW = b.adj[ai]
		row.nextDeg = b.off[v+1] - b.off[v]
	} else {
		v, w := b.atopo.Arc(int64(ai))
		row.nextV = int32(v)
		row.nextW = int32(w)
		row.nextDeg = int64(b.topo.Degree(v))
	}
}

// laneLoopTopoVertex is laneLoopVertex generalized over representation
// and backend: same lookahead, same inlined DIV update, same cold
// commit/sync path, with the counts index shifted by the
// representation's bias.
func laneLoopTopoVertex[O opcell](b *blockRun, live []*blockRow) []*blockRow {
	var touch O
	for li := 0; len(live) > 0; {
		if li >= len(live) {
			li = 0
		}
		row := live[li]
		s := row.s
		op := slabOf[O](s)
		bias := biasOf[O](s)
		if !row.haveNext {
			drawLaneTopoVertex(b, row)
			row.haveNext = true
		}
		v, w, dv := row.nextV, row.nextW, row.nextDeg
		drawLaneTopoVertex(b, row)
		touch += op[row.nextV] ^ op[row.nextW]
		row.laneDrawn++
		row.lanePending++
		xv := op[v]
		xw := op[w]
		if xv != xw {
			row.laneActive++
			if row.probe != nil {
				row.batch.Active++
			}
			var nw O
			var ds int64
			if xv < xw {
				nw, ds = xv+1, 1
			} else {
				nw, ds = xv-1, -1
			}
			op[v] = nw
			i := int32(nw) - bias
			j := int32(xv) - bias
			s.counts[i]++
			s.counts[j]--
			s.degMass[i] += dv
			s.degMass[j] -= dv
			row.laneSum += ds
			row.laneDegSum += ds * dv
			if s.counts[i] == 1 || s.counts[j] == 0 {
				b.laneCommit(row)
				syncCSRSupport(s)
				s.supVer++
				if b.afterSupport(row) {
					b.laneRetire(row)
					live[li] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
			}
		} else if row.probe != nil {
			row.batch.Idle++
		}
		row.laneRemaining--
		if row.laneRemaining == 0 {
			b.laneRetire(row)
			live[li] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		li++
	}
	b.laneSink += int64(touch)
	return live
}

// laneLoopTopoEdge is laneLoopEdge generalized the same way.
func laneLoopTopoEdge[O opcell](b *blockRun, live []*blockRow) []*blockRow {
	var touch O
	for li := 0; len(live) > 0; {
		if li >= len(live) {
			li = 0
		}
		row := live[li]
		s := row.s
		op := slabOf[O](s)
		bias := biasOf[O](s)
		if !row.haveNext {
			drawLaneTopoEdge(b, row)
			row.haveNext = true
		}
		v, w, dv := row.nextV, row.nextW, row.nextDeg
		drawLaneTopoEdge(b, row)
		touch += op[row.nextV] ^ op[row.nextW]
		row.laneDrawn++
		row.lanePending++
		xv := op[v]
		xw := op[w]
		if xv != xw {
			row.laneActive++
			if row.probe != nil {
				row.batch.Active++
			}
			var nw O
			var ds int64
			if xv < xw {
				nw, ds = xv+1, 1
			} else {
				nw, ds = xv-1, -1
			}
			op[v] = nw
			i := int32(nw) - bias
			j := int32(xv) - bias
			s.counts[i]++
			s.counts[j]--
			s.degMass[i] += dv
			s.degMass[j] -= dv
			row.laneSum += ds
			row.laneDegSum += ds * dv
			if s.counts[i] == 1 || s.counts[j] == 0 {
				b.laneCommit(row)
				syncCSRSupport(s)
				s.supVer++
				if b.afterSupport(row) {
					b.laneRetire(row)
					live[li] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
			}
		} else if row.probe != nil {
			row.batch.Idle++
		}
		row.laneRemaining--
		if row.laneRemaining == 0 {
			b.laneRetire(row)
			live[li] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		li++
	}
	b.laneSink += int64(touch)
	return live
}
