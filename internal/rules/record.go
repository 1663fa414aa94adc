package rules

// Records is a flat array of fixed-stride rule records: the one rule layout
// every serving-path candidate check reads — the engine's iSet validation
// (§4), its update overlay and the frozen remainder buckets. Record i is
// w[i*stride : (i+1)*stride] with stride 2*numFields+3 words:
//
//	lo0 hi0 lo1 hi1 … | priority | ID low word | ID high word
//
// A candidate check thus touches one record (52 B for five fields) instead
// of parallel bound, priority and ID arrays. The ID keeps full int width:
// Validate does not bound IDs to 32 bits.
type Records struct {
	numFields int
	w         []uint32
}

// MakeRecords returns an empty record array over numFields fields with room
// for n records.
func MakeRecords(numFields, n int) Records {
	return Records{numFields: numFields, w: make([]uint32, 0, n*(2*numFields+3))}
}

//nm:hotpath
func (rs *Records) stride() int { return 2*rs.numFields + 3 }

// Len returns the number of records.
//
//nm:hotpath
func (rs *Records) Len() int { return len(rs.w) / rs.stride() }

// Bytes returns the size of the record array in bytes.
func (rs *Records) Bytes() int { return 4 * len(rs.w) }

// Append adds r's record at the end. r must have numFields fields.
func (rs *Records) Append(r *Rule) {
	for _, f := range r.Fields[:rs.numFields] {
		rs.w = append(rs.w, f.Lo, f.Hi)
	}
	id := uint64(r.ID)
	rs.w = append(rs.w, uint32(r.Priority), uint32(id), uint32(id>>32))
}

// Inserted returns a copy of rs with r's record at index i, shifting the
// records from i on up by one. rs is not modified, so a published array
// stays valid.
func (rs *Records) Inserted(i int, r *Rule) Records {
	s := rs.stride()
	out := MakeRecords(rs.numFields, rs.Len()+1)
	out.w = append(out.w, rs.w[:i*s]...)
	out.Append(r)
	out.w = append(out.w, rs.w[i*s:]...)
	return out
}

// Removed returns a copy of rs without record i. rs is not modified.
func (rs *Records) Removed(i int) Records {
	s := rs.stride()
	out := MakeRecords(rs.numFields, rs.Len()-1)
	out.w = append(out.w, rs.w[:i*s]...)
	out.w = append(out.w, rs.w[(i+1)*s:]...)
	return out
}

// Prio returns record i's priority.
//
//nm:hotpath
func (rs *Records) Prio(i int) int32 {
	return int32(rs.w[i*rs.stride()+2*rs.numFields])
}

// ID returns record i's rule ID.
//
//nm:hotpath
func (rs *Records) ID(i int) int {
	k := i*rs.stride() + 2*rs.numFields + 1
	return int(int64(uint64(rs.w[k]) | uint64(rs.w[k+1])<<32))
}

// Match reports whether p falls inside record i's hyper-cube, exactly as
// Rule.Matches does for the rule the record was made from. Each field is
// one unsigned range check: lo <= v <= hi iff v-lo <= hi-lo, so
// (hi-lo) - (v-lo) computed in 64 bits has its sign bit set exactly when v
// is outside. The checks are OR-accumulated, so the loop has no
// data-dependent branch.
//
//nm:hotpath
func (rs *Records) Match(i int, p Packet) bool {
	nf := rs.numFields
	if len(p) < nf {
		return false
	}
	r := rs.w[i*rs.stride():]
	r = r[:2*nf]
	var out uint64
	for d, v := range p[:nf] {
		lo := r[2*d]
		out |= uint64(r[2*d+1]-lo) - uint64(v-lo)
	}
	return out>>63 == 0
}

// Scan returns the best record in [lo, hi) whose priority beats bound,
// which matches p and whose ID is not in skip (see Skipped), with its
// priority; or (NoMatch, bound). The span must ascend by priority: the scan
// stops at the first record that cannot beat the running bound.
//
//nm:hotpath
func (rs *Records) Scan(lo, hi int, p Packet, bound int32, skip []int) (int, int32) {
	best := NoMatch
	for i := lo; i < hi; i++ {
		prio := rs.Prio(i)
		if prio >= bound {
			break
		}
		if rs.Match(i, p) {
			if id := rs.ID(i); !Skipped(skip, id) {
				best, bound = id, prio
			}
		}
	}
	return best, bound
}
