package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/backends"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
)

// TestServerlessColdStartOrdering: the experiment's headline — forks <
// eager < cold on every runtime, and on CKI a lazy-fork p99 below the
// eager restore's below the cold boot's — holds off the committed fleet
// size too.
func TestServerlessColdStartOrdering(t *testing.T) {
	rep, err := RunServerless(Options{Scale: 1, Parallel: DefaultParallel(), Nodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Invariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerlessForkModeFilter: -fork-mode restricts the fleet stage to
// one instantiation mode, and an unknown mode fails before any cell
// runs.
func TestServerlessForkModeFilter(t *testing.T) {
	rep, err := RunServerless(Options{Scale: 1, Parallel: DefaultParallel(),
		Nodes: 4, ForkMode: "lazy"})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(serverlessSpecs()); len(rep.Rows) != want {
		t.Fatalf("got %d rows, want one lazy row per runtime", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Mode != "lazy" {
			t.Fatalf("unexpected mode in filtered run: %+v", r)
		}
	}
	if _, err := RunServerless(Options{Scale: 1, Parallel: 1, ForkMode: "warm"}); err == nil ||
		!strings.Contains(err.Error(), "unknown fork mode") {
		t.Fatalf("bad fork mode: err = %v", err)
	}
}

// TestServerlessTable: the table writer renders all three sections.
func TestServerlessTable(t *testing.T) {
	rep, err := RunServerless(Options{Scale: 1, Parallel: DefaultParallel(),
		Nodes: 4, ForkMode: "cow"})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Serverless instantiation paths", "Churn loop", "Fleet churn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestDigestIndexMatchesImageDigests: one digest index per snapshot,
// keyed by ASID, answers every share lookup of every fork exactly as
// ImageDigests of that fork's own rewritten image does. The templates
// are the serverless function and a checkpoint with several processes,
// file-backed pages and a zombie; the forks take several container IDs.
func TestDigestIndexMatchesImageDigests(t *testing.T) {
	templates := []struct {
		name  string
		build func(t *testing.T, k *guest.Kernel)
	}{
		{"serverless", func(t *testing.T, k *guest.Kernel) {
			addr, err := serverlessInit(k, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := serverlessInvoke(k, addr); err != nil {
				t.Fatal(err)
			}
		}},
		{"procs+zombie", buildProcsTemplate},
	}
	for _, tpl := range templates {
		for _, kind := range []backends.Kind{backends.RunC, backends.CKI} {
			t.Run(tpl.name+"/"+kind.String(), func(t *testing.T) {
				c, err := backends.New(kind, backends.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tpl.build(t, c.K)
				snap, err := backends.Checkpoint(c)
				if err != nil {
					t.Fatal(err)
				}
				idx := snapshot.NewDigestIndex(snap)
				for _, id := range []int{snap.ContainerID, 2, 9, 255} {
					m, err := backends.NewMachine(snap.Config.HostFrames, snap.Config.TLBEntries)
					if err != nil {
						t.Fatal(err)
					}
					f, err := backends.ForkFromSnapshot(m, snap, idx, snapshot.NewPageStore(m.HostMem), id, guest.RestoreCOW)
					if err != nil {
						t.Fatalf("fork %d: %v", id, err)
					}
					want := snapshot.ImageDigests(forkedImage(snap, id))
					n := 0
					for _, pid := range f.K.PIDs() {
						p := f.K.Proc(pid)
						if p.Exited {
							continue
						}
						for _, va := range p.AS.ResidentVAs() {
							n++
							w, ok := want[snapshot.PageKey{PCID: p.AS.PCID, VA: va}]
							got, gok := idx.Digest(p.AS.PCID, va)
							if !ok || !gok || got != w {
								t.Fatalf("fork %d pcid %#x va %#x: index %#016x (%v), image %#016x (%v)",
									id, p.AS.PCID, va, got, gok, w, ok)
							}
						}
					}
					if n != len(want) || n == 0 {
						t.Fatalf("fork %d: %d resident pages checked, image has %d", id, n, len(want))
					}
				}
			})
		}
	}
}

// forkedImage is snap's image as a fork into container id sees it:
// every live process's PCID moved into id's group, ASIDs kept.
func forkedImage(snap *snapshot.Snapshot, id int) *guest.Image {
	img := snap.Image
	img.ContainerID = id
	img.Procs = append([]guest.ProcImage(nil), img.Procs...)
	for i := range img.Procs {
		if !img.Procs[i].Exited {
			img.Procs[i].PCID = uint16(id<<8) | img.Procs[i].PCID&0xff
		}
	}
	return &img
}

// buildProcsTemplate leaves the kernel with a file-backed mapping and
// an anonymous heap in four address spaces (three of them forked
// copies) plus a zombie.
func buildProcsTemplate(t *testing.T, k *guest.Kernel) {
	const pages = 6
	data := make([]byte, pages*mem.PageSize-100)
	for i := range data {
		data[i] = byte(i*7 + i/mem.PageSize)
	}
	fd, err := k.Open("/lib.so", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(fd, data); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatal(err)
	}
	ino, err := k.FS.Lookup("/lib.so")
	if err != nil {
		t.Fatal(err)
	}
	file, err := k.MmapCall(pages*mem.PageSize, guest.ProtRead, ino, false)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := k.MmapCall(4*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(file, pages*mem.PageSize, mmu.Read); err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(heap, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	parent := k.Cur.PID
	for i := 0; i < 3; i++ {
		if _, err := k.Fork(); err != nil {
			t.Fatal(err)
		}
	}
	zombie, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SwitchToPID(zombie); err != nil {
		t.Fatal(err)
	}
	if err := k.Exit(3); err != nil {
		t.Fatal(err)
	}
	if err := k.SwitchToPID(parent); err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, pid := range k.PIDs() {
		if p := k.Proc(pid); !p.Exited && len(p.AS.ResidentVAs()) > 0 {
			live++
		}
	}
	if live != 4 || !k.Proc(zombie).Exited {
		t.Fatalf("template has %d live processes with resident pages, zombie exited %v", live, k.Proc(zombie).Exited)
	}
}
