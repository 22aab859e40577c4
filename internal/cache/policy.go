package cache

// policy is the per-set replacement behaviour. Implementations mutate the
// per-line meta field: for the LRU family it is a recency stack position
// (0 = MRU, Ways-1 = LRU); for the RRIP family it is the re-reference
// prediction value (0 = near-immediate, rrpvMax = distant).
type policy interface {
	onHit(s *set, way int)
	victim(s *set) int
	onInsert(s *set, way int)
	// onFill inserts at low priority: prefetched blocks that are not
	// referenced promptly should be the first to go.
	onFill(s *set, way int)
}

func newPolicy(c *Cache) policy {
	switch c.cfg.Policy {
	case LRU:
		return &stackPolicy{c: c, insertAt: insertMRU}
	case LIP:
		return &stackPolicy{c: c, insertAt: insertLRU}
	case BIP:
		return &stackPolicy{c: c, insertAt: insertBimodal}
	case DIP:
		return newDuel(c,
			&stackPolicy{c: c, insertAt: insertMRU},
			&stackPolicy{c: c, insertAt: insertBimodal})
	case SRRIP:
		return &rripPolicy{c: c, bimodal: false}
	case BRRIP:
		return &rripPolicy{c: c, bimodal: true}
	case DRRIP:
		return newDuel(c,
			&rripPolicy{c: c, bimodal: false},
			&rripPolicy{c: c, bimodal: true})
	default:
		panic("cache: unknown policy " + c.cfg.Policy.String())
	}
}

// --- LRU / LIP / BIP -------------------------------------------------------

type insertMode int

const (
	insertMRU insertMode = iota
	insertLRU
	insertBimodal // LRU except with probability 2^-BIPEpsilonLog2 at MRU
)

// stackPolicy implements true-LRU ordering with a configurable insertion
// position, covering LRU, LIP and BIP from Qureshi et al. [24].
type stackPolicy struct {
	c        *Cache
	insertAt insertMode
}

// promote moves way to stack position pos, shifting intervening lines down.
func promote(s *set, way int, pos uint8) {
	old := s.meta[way]
	if old == pos {
		return
	}
	if old > pos {
		for w, m := range s.meta {
			if m >= pos && m < old {
				s.meta[w] = m + 1
			}
		}
	} else {
		for w, m := range s.meta {
			if m > old && m <= pos {
				s.meta[w] = m - 1
			}
		}
	}
	s.meta[way] = pos
}

func (p *stackPolicy) onHit(s *set, way int) { promote(s, way, 0) }

func (p *stackPolicy) victim(s *set) int {
	// Invalid lines first: keep their stack positions intact so the meta
	// permutation stays consistent.
	if s.valid != 1<<uint(s.ways())-1 {
		for w := 0; w < s.ways(); w++ {
			if !s.isValid(w) {
				return w
			}
		}
	}
	lru := 0
	for w, m := range s.meta {
		if m > s.meta[lru] {
			lru = w
		}
	}
	return lru
}

func (p *stackPolicy) onFill(s *set, way int) {
	promote(s, way, uint8(s.ways()-1))
}

func (p *stackPolicy) onInsert(s *set, way int) {
	mode := p.insertAt
	if mode == insertBimodal {
		if p.c.draw().Intn(1<<p.c.cfg.BIPEpsilonLog2) == 0 {
			mode = insertMRU
		} else {
			mode = insertLRU
		}
	}
	switch mode {
	case insertMRU:
		promote(s, way, 0)
	case insertLRU:
		promote(s, way, uint8(s.ways()-1))
	}
}

// --- SRRIP / BRRIP ---------------------------------------------------------

const rrpvMax = 3 // 2-bit RRPV per Jaleel et al. [12]

// rripPolicy implements static (SRRIP) and bimodal (BRRIP) re-reference
// interval prediction with hit-priority promotion.
type rripPolicy struct {
	c       *Cache
	bimodal bool
}

func (p *rripPolicy) onHit(s *set, way int) { s.meta[way] = 0 }

func (p *rripPolicy) victim(s *set) int {
	if s.valid != 1<<uint(s.ways())-1 {
		for w := 0; w < s.ways(); w++ {
			if !s.isValid(w) {
				return w
			}
		}
	}
	for {
		for w, m := range s.meta {
			if m >= rrpvMax {
				return w
			}
		}
		for w := range s.meta {
			s.meta[w]++
		}
	}
}

func (p *rripPolicy) onFill(s *set, way int) {
	s.meta[way] = rrpvMax
}

func (p *rripPolicy) onInsert(s *set, way int) {
	if p.bimodal && p.c.draw().Intn(1<<p.c.cfg.BIPEpsilonLog2) != 0 {
		// BRRIP predicts a distant re-reference interval for most blocks,
		// protecting the resident fraction of a thrashing footprint.
		s.meta[way] = rrpvMax
		return
	}
	s.meta[way] = rrpvMax - 1 // SRRIP "long" interval
}

// --- Set dueling (DIP, DRRIP) ----------------------------------------------

// duelPolicy implements set dueling: a handful of leader sets are dedicated
// to each component policy and their misses steer a saturating selector
// (PSEL); follower sets obey the currently winning policy.
type duelPolicy struct {
	c       *Cache
	a, b    policy
	psel    int
	pselMax int
	stride  int
}

func newDuel(c *Cache, a, b policy) *duelPolicy {
	max := 1<<c.cfg.PSELBits - 1
	return &duelPolicy{c: c, a: a, b: b, psel: max / 2, pselMax: max, stride: c.cfg.DuelLeaderStride}
}

// leader returns +1 if the set leads policy a, -1 for policy b, 0 follower.
func (p *duelPolicy) leader(s *set) int {
	switch s.idx % p.stride {
	case 0:
		return +1
	case 1:
		return -1
	}
	return 0
}

func (p *duelPolicy) active(s *set) policy {
	switch p.leader(s) {
	case +1:
		return p.a
	case -1:
		return p.b
	}
	if p.psel >= (p.pselMax+1)/2 {
		return p.b
	}
	return p.a
}

func (p *duelPolicy) onHit(s *set, way int) { p.active(s).onHit(s, way) }

func (p *duelPolicy) victim(s *set) int {
	// A miss in a leader set is evidence against its policy.
	switch p.leader(s) {
	case +1:
		if p.psel < p.pselMax {
			p.psel++
		}
	case -1:
		if p.psel > 0 {
			p.psel--
		}
	}
	return p.active(s).victim(s)
}

func (p *duelPolicy) onInsert(s *set, way int) { p.active(s).onInsert(s, way) }

func (p *duelPolicy) onFill(s *set, way int) { p.active(s).onFill(s, way) }
