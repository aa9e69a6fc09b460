package cache

// Prefetchers per Table IV: a stride prefetcher (degree 2 at L1, 4 at L2)
// and a next-line prefetcher with auto turn-off. Both observe demand-miss
// block addresses per stream and emit predicted block addresses; the node
// model fills the predictions into the cache hierarchy and charges their
// memory traffic.

// StridePrefetcher detects constant-stride streams and prefetches `degree`
// blocks ahead once a stride repeats.
type StridePrefetcher struct {
	degree  int
	streams []strideState // indexed by stream id, grown on first use
}

type strideState struct {
	seen       bool // the stream has been observed at least once
	last       uint64
	stride     int64
	confidence int
}

// NewStridePrefetcher returns a stride prefetcher with the given degree.
// It panics if degree <= 0.
func NewStridePrefetcher(degree int) *StridePrefetcher {
	if degree <= 0 {
		panic("cache: non-positive prefetch degree")
	}
	return &StridePrefetcher{degree: degree}
}

// AppendObserve records a demand block address on a stream and appends
// the block addresses to prefetch to dst (none until the stride is
// confident), so a caller reusing one scratch buffer observes without
// allocating. Stream ids are small non-negative integers (the workload
// numbers its sequential streams from 1); a negative id panics.
func (p *StridePrefetcher) AppendObserve(dst []uint64, stream int, block uint64) []uint64 {
	if stream < 0 {
		panic("cache: negative prefetch stream id")
	}
	if stream >= len(p.streams) {
		p.streams = append(p.streams, make([]strideState, stream+1-len(p.streams))...)
	}
	st := &p.streams[stream]
	if !st.seen {
		*st = strideState{seen: true, last: block}
		return dst
	}
	stride := int64(block) - int64(st.last)
	if stride == st.stride && stride != 0 {
		if st.confidence < 4 {
			st.confidence++
		}
	} else {
		st.stride = stride
		st.confidence = 0
	}
	st.last = block
	if st.confidence < 2 {
		return dst
	}
	next := int64(block)
	for i := 0; i < p.degree; i++ {
		next += st.stride
		if next < 0 {
			break
		}
		dst = append(dst, uint64(next))
	}
	return dst
}

// NextLinePrefetcher prefetches block+1 on every demand miss, but monitors
// its own accuracy and turns itself off when prefetches go unused
// ("Next-line (with auto turn-off)", Table IV).
type NextLinePrefetcher struct {
	issued   uint64
	useful   uint64
	window   uint64 // evaluation window size
	enabled  bool
	minAccur float64
}

// NewNextLinePrefetcher returns an enabled next-line prefetcher that
// disables itself when useful/issued drops below minAccuracy over each
// window of `window` issues.
func NewNextLinePrefetcher(window uint64, minAccuracy float64) *NextLinePrefetcher {
	if window == 0 {
		panic("cache: zero accuracy window")
	}
	return &NextLinePrefetcher{window: window, enabled: true, minAccur: minAccuracy}
}

// Enabled reports whether the prefetcher is currently active.
func (p *NextLinePrefetcher) Enabled() bool { return p.enabled }

// AppendObserve appends the next-line prediction for a demand miss to
// dst, or nothing when turned off, so a caller reusing one scratch
// buffer observes without allocating.
func (p *NextLinePrefetcher) AppendObserve(dst []uint64, block uint64) []uint64 {
	if !p.enabled {
		return dst
	}
	p.issued++
	if p.issued%p.window == 0 {
		if float64(p.useful)/float64(p.window) < p.minAccur {
			p.enabled = false
		}
		p.useful = 0
	}
	return append(dst, block+1)
}

// CreditUseful informs the prefetcher that one of its fills was demanded.
func (p *NextLinePrefetcher) CreditUseful() { p.useful++ }
