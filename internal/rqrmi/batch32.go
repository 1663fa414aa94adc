package rqrmi

import "math/bits"

// This file is the single-precision batched lookup path (§4): staged
// inference through the float32 kernel (AVX2 assembly or the bit-identical
// pure-Go form) followed by an 8-wide register-resident lockstep secondary
// search.
//
// Exactness argument. The float32 pipeline may predict a different entry
// index than the float64 pipeline — that is expected and harmless, because
// the secondary search window makes the final answer depend only on whether
// the true entry lies inside the window. The one hazard is the true entry
// falling OUTSIDE the float32 window. That condition is detectable in O(1)
// after the search, because entry starts are sorted and ranges are
// non-overlapping:
//
//   - left escape:  every entry in the window starts above the key
//     (los[l] > key after the search converges at the window floor);
//   - right escape: the search converged at the window ceiling and the next
//     entry also starts at or below the key (los[hi0+1] <= key).
//
// Either way the lane is rerouted to the exact scalar LookupEntry. In all
// other cases the window provably contains the key's global predecessor
// entry, and the containment check (los[l] <= key <= his[l]) decides
// found/miss exactly as the scalar path does. LookupEntryBatch therefore
// returns bit-identical results to LookupEntry for every key and every
// model, independent of kernel choice and of how well the re-validated
// float32 error bounds (errs32) fit — those only set the fallback rate.

// lookupEntryBatchF32 resolves keys through the float32 staged kernel,
// writing matched entry positions (or -1) into out. asm selects the AVX2
// kernel; results are identical either way.
//
//nm:hotpath
func (m *Model) lookupEntryBatchF32(keys []uint32, out []int32, asm bool) {
	var x, y, xg, yg [BatchChunk]float32
	var js, preds, order, act [BatchChunk]int32
	var akeys [BatchChunk]uint32
	var cnt [maxGroupWidth + 1]int32
	f := m.flat32
	last := len(m.stages) - 1
	nEntries := len(m.los)
	maxIdx := int32(nEntries - 1)
	for off := 0; off < len(keys); off += BatchChunk {
		nIn := len(keys) - off
		if nIn > BatchChunk {
			nIn = BatchChunk
		}
		block := keys[off : off+nIn]
		// Compact away keys the coarse bitmap proves to be in a gap.
		n := 0
		for c, k := range block {
			if !m.coarseHit(k) {
				out[off+c] = -1
				continue
			}
			act[n] = int32(c)
			akeys[n] = k
			x[n] = float32(k) * scale32
			js[n] = 0
			n++
		}
		if n == 0 {
			continue
		}
		for s := 0; s <= last; s++ {
			outW := nEntries
			if s < last {
				outW = m.widths[s+1]
			}
			width := m.widths[s]
			fw := float32(outW)
			outW32 := int32(outW)
			isLeaf := s == last
			switch {
			case width == 1:
				f.evalBlock(int(f.off[s]), x[:n], y[:n], asm)
				if isLeaf {
					for c := 0; c < n; c++ {
						preds[c] = quantize32(y[c], fw, outW32)
					}
				} else {
					for c := 0; c < n; c++ {
						js[c] = quantize32(y[c], fw, outW32)
					}
				}
			default:
				// Counting-sort keys by owning submodel so each group runs
				// the kernel with one parameter set; scatter results back.
				// flatten32 admits no stage wider than maxGroupWidth.
				for j := 0; j <= width; j++ {
					cnt[j] = 0
				}
				for c := 0; c < n; c++ {
					cnt[js[c]+1]++
				}
				for j := 0; j < width; j++ {
					cnt[j+1] += cnt[j]
				}
				for c := 0; c < n; c++ {
					pos := cnt[js[c]]
					cnt[js[c]] = pos + 1
					order[pos] = int32(c)
					xg[pos] = x[c]
				}
				start := 0
				for j := 0; j < width && start < n; j++ {
					end := int(cnt[j])
					if end > start {
						f.evalBlock(int(f.off[s])+j, xg[start:end], yg[start:end], asm)
						start = end
					}
				}
				if isLeaf {
					for c := 0; c < n; c++ {
						preds[order[c]] = quantize32(yg[c], fw, outW32)
					}
				} else {
					for c := 0; c < n; c++ {
						js[order[c]] = quantize32(yg[c], fw, outW32)
					}
				}
			}
		}
		// Search windows from the re-validated float32 bounds. hi0 keeps the
		// original window ceiling: the branchless rounds drive hi below lo on
		// converged lanes, but right-escape detection needs the true ceiling.
		var lo, hi, hi0 [BatchChunk]int32
		for c := 0; c < n; c++ {
			e := m.errs32[js[c]]
			l, h := preds[c]-e, preds[c]+e
			if l < 0 {
				l = 0
			}
			if h > maxIdx {
				h = maxIdx
			}
			lo[c], hi[c] = l, h
			hi0[c] = h
		}
		// Lockstep search, 8 lanes per group with state in named locals so
		// the whole search runs register-resident: every round issues 8
		// independent boundary-array loads (hiding each other's latency) and
		// advances all 8 searches one branchless step. The step is idempotent
		// once a lane converges, so the group runs its widest lane's round
		// count; groups run their own count, so a single wide window does not
		// tax the whole chunk.
		los := m.los
		for c0 := 0; c0 < n; c0 += 8 {
			g := n - c0
			if g > 8 {
				g = 8
			}
			// Padding lanes get lo=hi=0: converged from the start, and lane 0
			// of the boundary array is always a valid load.
			l0, l1, l2, l3, l4, l5, l6, l7 := int32(0), int32(0), int32(0), int32(0), int32(0), int32(0), int32(0), int32(0)
			h0, h1, h2, h3, h4, h5, h6, h7 := int32(0), int32(0), int32(0), int32(0), int32(0), int32(0), int32(0), int32(0)
			var k0, k1, k2, k3, k4, k5, k6, k7 uint32
			rounds := 0
			for i := 0; i < g; i++ {
				l, h, k := lo[c0+i], hi[c0+i], akeys[c0+i]
				switch i {
				case 0:
					l0, h0, k0 = l, h, k
				case 1:
					l1, h1, k1 = l, h, k
				case 2:
					l2, h2, k2 = l, h, k
				case 3:
					l3, h3, k3 = l, h, k
				case 4:
					l4, h4, k4 = l, h, k
				case 5:
					l5, h5, k5 = l, h, k
				case 6:
					l6, h6, k6 = l, h, k
				case 7:
					l7, h7, k7 = l, h, k
				}
				if w := int(h - l); w > 0 {
					if r := bits.Len(uint(w)); r > rounds {
						rounds = r
					}
				}
			}
			for ; rounds > 0; rounds-- {
				m0 := int32(uint32(l0+h0+1) >> 1)
				m1 := int32(uint32(l1+h1+1) >> 1)
				m2 := int32(uint32(l2+h2+1) >> 1)
				m3 := int32(uint32(l3+h3+1) >> 1)
				m4 := int32(uint32(l4+h4+1) >> 1)
				m5 := int32(uint32(l5+h5+1) >> 1)
				m6 := int32(uint32(l6+h6+1) >> 1)
				m7 := int32(uint32(l7+h7+1) >> 1)
				b0 := los[m0]
				b1 := los[m1]
				b2 := los[m2]
				b3 := los[m3]
				b4 := los[m4]
				b5 := los[m5]
				b6 := los[m6]
				b7 := los[m7]
				var g0, g1, g2, g3, g4, g5, g6, g7 int32
				if b0 <= k0 {
					g0 = 1
				}
				if b1 <= k1 {
					g1 = 1
				}
				if b2 <= k2 {
					g2 = 1
				}
				if b3 <= k3 {
					g3 = 1
				}
				if b4 <= k4 {
					g4 = 1
				}
				if b5 <= k5 {
					g5 = 1
				}
				if b6 <= k6 {
					g6 = 1
				}
				if b7 <= k7 {
					g7 = 1
				}
				l0 += g0 * (m0 - l0)
				h0 -= (1 - g0) * (h0 - m0 + 1)
				l1 += g1 * (m1 - l1)
				h1 -= (1 - g1) * (h1 - m1 + 1)
				l2 += g2 * (m2 - l2)
				h2 -= (1 - g2) * (h2 - m2 + 1)
				l3 += g3 * (m3 - l3)
				h3 -= (1 - g3) * (h3 - m3 + 1)
				l4 += g4 * (m4 - l4)
				h4 -= (1 - g4) * (h4 - m4 + 1)
				l5 += g5 * (m5 - l5)
				h5 -= (1 - g5) * (h5 - m5 + 1)
				l6 += g6 * (m6 - l6)
				h6 -= (1 - g6) * (h6 - m6 + 1)
				l7 += g7 * (m7 - l7)
				h7 -= (1 - g7) * (h7 - m7 + 1)
			}
			for i := 0; i < g; i++ {
				switch i {
				case 0:
					lo[c0] = l0
				case 1:
					lo[c0+1] = l1
				case 2:
					lo[c0+2] = l2
				case 3:
					lo[c0+3] = l3
				case 4:
					lo[c0+4] = l4
				case 5:
					lo[c0+5] = l5
				case 6:
					lo[c0+6] = l6
				case 7:
					lo[c0+7] = l7
				}
			}
		}
		// Resolve lanes: escape detection first (see file comment), then the
		// exact containment check.
		for c := 0; c < n; c++ {
			l, k := lo[c], akeys[c]
			if los[l] > k || (l == hi0[c] && l < maxIdx && los[l+1] <= k) {
				// The float32 window may have missed the true entry: resolve
				// this key on the exact scalar float64 path.
				if idx, ok := m.LookupEntry(k); ok {
					out[off+int(act[c])] = int32(idx)
				} else {
					out[off+int(act[c])] = -1
				}
				continue
			}
			if k <= m.his[l] {
				out[off+int(act[c])] = l
			} else {
				out[off+int(act[c])] = -1
			}
		}
	}
}
