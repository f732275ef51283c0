// Command ckireplay inspects machine-level audit logs recorded by
// ckirun -audit-out and ckibench -exp smp -audit-out: it summarizes a
// log, greps events by kind, time-travels to any virtual timestamp,
// pinpoints the first divergence between two runs, and re-executes a
// log's run from its metadata to prove the recording is reproducible.
//
// Usage:
//
//	ckireplay -in run.log                      # summary: meta, counts, duration
//	ckireplay -in run.log -grep pte_write      # print matching events
//	ckireplay -in run.log -at 120us            # machine state at t=120us
//	ckireplay -in a.log -diff b.log            # first divergence (exit 1 if any)
//	ckireplay -in run.log -live                # re-execute from meta and diff
//	ckireplay -in run.log -json                # machine-readable output
//
// -at accepts ns/us/ms/s suffixes; a bare number is virtual picoseconds.
// Exit codes: 0 success (and logs identical), 1 divergence or error,
// 2 usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/backends"
	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/workloads"
)

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ckireplay: "+format+"\n", args...)
	os.Exit(1)
}

func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ckireplay: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	in := flag.String("in", "", "audit log to inspect (required)")
	diff := flag.String("diff", "", "second log: report the first divergence from -in")
	at := flag.String("at", "", "reconstruct machine state at this virtual time (ns/us/ms/s suffix; bare = ps)")
	grep := flag.String("grep", "", "print events whose kind matches this substring")
	live := flag.Bool("live", false, "re-execute the run described by the log's metadata and diff")
	jsonOut := flag.Bool("json", false, "machine-readable output")
	flag.Parse()

	if *in == "" {
		usagef("-in is required")
	}
	modes := 0
	for _, set := range []bool{*diff != "", *at != "", *grep != "", *live} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		usagef("-diff, -at, -grep and -live are mutually exclusive")
	}
	log, err := audit.ReadFile(*in)
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *diff != "":
		other, err := audit.ReadFile(*diff)
		if err != nil {
			fatalf("%v", err)
		}
		runDiff(log.Events, other.Events, *jsonOut)
	case *at != "":
		t, err := clock.ParseTime(*at)
		if err != nil {
			usagef("%v", err)
		}
		runAt(log, t, *jsonOut)
	case *grep != "":
		runGrep(log, *grep, *jsonOut)
	case *live:
		runLive(log, *jsonOut)
	default:
		runSummary(log, *jsonOut)
	}
}

// runDiff prints the first divergence between two event streams and
// exits 1 when they differ.
func runDiff(a, b []audit.Event, jsonOut bool) {
	d := audit.FirstDivergence(a, b)
	if jsonOut {
		out := map[string]interface{}{"identical": d == nil}
		if d != nil {
			out["index"] = d.Index
			out["a"] = eventJSON(d.A)
			out["b"] = eventJSON(d.B)
		}
		emitJSON(out)
	} else {
		fmt.Println(d.String())
	}
	if d != nil {
		os.Exit(1)
	}
}

// runAt reconstructs machine state at virtual time t.
func runAt(log *audit.Log, t clock.Time, jsonOut bool) {
	s := audit.ReplayUntil(log.Events, t)
	if !jsonOut {
		fmt.Print(s.Render())
		return
	}
	vcpus := map[string]*audit.VCPUState{}
	for _, id := range s.VCPUIDs() {
		vcpus[strconv.Itoa(id)] = s.VCPU(id)
	}
	emitJSON(map[string]interface{}{
		"events_applied": s.N,
		"at_ps":          int64(s.At),
		"vcpus":          vcpus,
		"counts":         countsJSON(s.Counts()),
		"fingerprint":    s.Fingerprint(),
	})
}

// runGrep prints the events whose kind name contains the pattern.
func runGrep(log *audit.Log, pat string, jsonOut bool) {
	var hits []audit.Event
	for _, e := range log.Events {
		if strings.Contains(e.Kind.String(), pat) {
			hits = append(hits, e)
		}
	}
	if jsonOut {
		out := make([]map[string]interface{}, len(hits))
		for i, e := range hits {
			out[i] = eventJSON(&e)
		}
		emitJSON(out)
		return
	}
	for _, e := range hits {
		fmt.Println(e.String())
	}
	fmt.Fprintf(os.Stderr, "ckireplay: %d of %d events matched %q\n", len(hits), len(log.Events), pat)
}

// runSummary prints the run descriptor, duration and per-kind counts.
func runSummary(log *audit.Log, jsonOut bool) {
	var first, last clock.Time
	if n := len(log.Events); n > 0 {
		first, last = log.Events[0].At, log.Events[n-1].At
	}
	counts := audit.ReplayPrefix(log.Events, len(log.Events)).Counts()
	if jsonOut {
		emitJSON(map[string]interface{}{
			"meta":     log.Meta,
			"events":   len(log.Events),
			"first_ps": int64(first),
			"last_ps":  int64(last),
			"counts":   countsJSON(counts),
		})
		return
	}
	m := log.Meta
	fmt.Printf("log:      %d events, t=%v .. %v\n", len(log.Events), first, last)
	switch m.Kind {
	case "ckirun":
		fmt.Printf("run:      ckirun -runtime %s -workload %s", m.Runtime, m.Workload)
		if m.Nested {
			fmt.Print(" -nested")
		}
		if m.FaultSeed != 0 {
			fmt.Printf(" -faults %#x", m.FaultSeed)
		}
		fmt.Println()
	case "smp":
		fmt.Printf("run:      ckibench -exp smp (seed=%#x scale=%d)\n", m.Seed, m.Scale)
	default:
		fmt.Printf("run:      (no metadata)\n")
	}
	type kc struct {
		k audit.Kind
		n uint64
	}
	rows := make([]kc, 0, len(counts))
	for k, n := range counts {
		rows = append(rows, kc{k, n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	for _, r := range rows {
		fmt.Printf("  %-16s %d\n", r.k, r.n)
	}
}

// runLive re-executes the run described by the log's metadata with a
// fresh recorder and diffs the two logs; a reproducible log exits 0.
func runLive(log *audit.Log, jsonOut bool) {
	var rec *audit.Recorder
	switch log.Meta.Kind {
	case "ckirun":
		rec = reliveCkirun(log.Meta)
	case "smp":
		prof, err := bench.RunSMPObserved(log.Meta.Scale, log.Meta.Seed, 1)
		if err != nil {
			fatalf("relive smp: %v", err)
		}
		rec = prof.Audit()
	default:
		fatalf("log has no run metadata; cannot re-execute")
	}
	if !jsonOut {
		fmt.Fprintf(os.Stderr, "ckireplay: re-executed %s run: %d events recorded, %d in log\n",
			log.Meta.Kind, rec.Len(), len(log.Events))
	}
	runDiff(log.Events, rec.Events(), jsonOut)
}

// reliveCkirun reboots the container and reruns the workload exactly as
// ckirun did when it recorded the log, into a fresh recorder.
func reliveCkirun(m audit.Meta) *audit.Recorder {
	kind, ok := backends.KindByName(m.Runtime)
	if !ok {
		fatalf("log metadata names unknown runtime %q", m.Runtime)
	}
	runner, ok := workloads.Catalog()[m.Workload]
	if !ok {
		fatalf("log metadata names unknown workload %q", m.Workload)
	}
	rec := audit.NewRecorder(nil)
	rec.Meta = m
	c, err := backends.New(kind, backends.Options{Nested: m.Nested, Audit: rec})
	if err != nil {
		fatalf("relive boot: %v", err)
	}
	var plan *faults.Plan
	if m.FaultSeed != 0 {
		plan = faults.DefaultPlan(m.FaultSeed)
		c.InjectFaults(plan)
	}
	if _, err := runner.Run(c); err != nil && plan == nil {
		// Under a fault plan a contained panic or abort is an expected,
		// fully recorded outcome — the diff decides reproducibility.
		fatalf("relive run: %v", err)
	}
	return rec
}

func eventJSON(e *audit.Event) map[string]interface{} {
	if e == nil {
		return nil
	}
	return map[string]interface{}{
		"at_ps":  int64(e.At),
		"kind":   e.Kind.String(),
		"vcpu":   e.VCPU,
		"pcid":   e.PCID,
		"a":      e.A,
		"b":      e.B,
		"c":      e.C,
		"detail": e.Detail(),
	}
}

func countsJSON(counts map[audit.Kind]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(counts))
	for k, n := range counts {
		out[k.String()] = n
	}
	return out
}

func emitJSON(v interface{}) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("%v", err)
	}
}
