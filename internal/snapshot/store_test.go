package snapshot

import (
	"testing"

	"repro/internal/mem"
)

func testMem(t *testing.T) *mem.PhysMem {
	t.Helper()
	return mem.New(1 << 12)
}

// TestStoreRefcounts walks the master lifecycle: first Intern allocates
// under StoreOwner, later Interns share, Release/Break drain, and the
// last reference frees the frame back to host memory.
func TestStoreRefcounts(t *testing.T) {
	m := testMem(t)
	ps := NewPageStore(m)
	const d = uint64(0x1234)

	pfn, err := ps.Intern(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Owner(pfn); got != StoreOwner {
		t.Fatalf("master owner = %d, want StoreOwner", got)
	}
	if st := ps.Stats(); st.UniquePages != 1 || st.UniqueBytes != mem.PageSize ||
		st.SharedRefs != 0 || st.SharedBytes != 0 {
		t.Fatalf("after first intern: %+v", st)
	}

	again, err := ps.Intern(d)
	if err != nil {
		t.Fatal(err)
	}
	if again != pfn {
		t.Fatalf("second intern returned a different master: %v vs %v", again, pfn)
	}
	if st := ps.Stats(); st.UniquePages != 1 || st.SharedRefs != 1 || st.SharedBytes != mem.PageSize {
		t.Fatalf("after second intern: %+v", st)
	}
	if got := ps.Refs(d); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}

	// A break is a release plus the break counter.
	if err := ps.Break(d); err != nil {
		t.Fatal(err)
	}
	if st := ps.Stats(); st.Breaks != 1 || st.SharedRefs != 0 || st.UniquePages != 1 {
		t.Fatalf("after break: %+v", st)
	}
	if !m.Allocated(pfn) {
		t.Fatal("master freed while still referenced")
	}

	if err := ps.Release(d); err != nil {
		t.Fatal(err)
	}
	if m.Allocated(pfn) {
		t.Fatal("master not freed with the last reference")
	}
	if st := ps.Stats(); st.UniquePages != 0 || st.UniqueBytes != 0 {
		t.Fatalf("after drain: %+v", st)
	}
	if ps.Refs(d) != 0 {
		t.Fatalf("refs after drain = %d", ps.Refs(d))
	}
	if err := ps.Release(d); err == nil {
		t.Fatal("release of an un-interned digest accepted")
	}
}

// TestStoreLookupNeutral: Lookup neither counts references nor
// allocates (the wallclock suite pins the allocation side too).
func TestStoreLookupNeutral(t *testing.T) {
	m := testMem(t)
	ps := NewPageStore(m)
	if _, ok := ps.Lookup(7); ok {
		t.Fatal("lookup hit on an empty store")
	}
	pfn, err := ps.Intern(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, ok := ps.Lookup(7)
		if !ok || got != pfn {
			t.Fatalf("lookup = %v, %v", got, ok)
		}
	}
	if got := ps.Refs(7); got != 1 {
		t.Fatalf("lookup moved the refcount to %d", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := ps.Lookup(7); !ok {
			t.Fatal("lookup miss")
		}
	}); allocs != 0 {
		t.Fatalf("Lookup allocates %v times per call, want 0", allocs)
	}
}

// TestPageDigests: anonymous pages all hash to the zero-page digest,
// file-backed pages hash their 4 KiB window (zero-padded past EOF, the
// zero page when the image lacks the file), and
// ImageDigests indexes every resident page by (PCID, VA).
func TestPageDigests(t *testing.T) {
	s := sample()
	img := &s.Image
	pi := &img.Procs[0]

	anon := PageDigest(img, pi, 0x1000000)
	if anon != zeroPageDigest {
		t.Fatalf("anonymous page digest %#x != zero-page digest %#x", anon, zeroPageDigest)
	}
	filePg := PageDigest(img, pi, 0x7f0000000000)
	if filePg == zeroPageDigest {
		t.Fatal("file-backed page hashed like an anonymous page")
	}
	if got := filePageDigest([]byte("payload bytes"), 0); got != filePg {
		t.Fatalf("file window digest mismatch: %#x vs %#x", got, filePg)
	}
	// Padding is explicit zeros: a short file differs from an empty one
	// only by its real bytes.
	if filePageDigest(nil, 0) != zeroPageDigest {
		t.Fatal("empty file window must equal the zero page")
	}
	if filePageDigest([]byte{1}, 1) != zeroPageDigest {
		t.Fatal("window past EOF must equal the zero page")
	}
	// Every window is the FNV-64a of its explicitly padded 4 KiB: a
	// full page, one cut by EOF, and one starting past it.
	data := make([]byte, 2*mem.PageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	for _, off := range []uint64{0, 100, mem.PageSize, 2 * mem.PageSize, 3 * mem.PageSize} {
		page := make([]byte, mem.PageSize)
		if off < uint64(len(data)) {
			copy(page, data[off:])
		}
		if got, want := filePageDigest(data, off), fnv64a(page); got != want {
			t.Fatalf("window at %#x: digest %#x, want %#x", off, got, want)
		}
	}
	// A file-backed VMA whose file the image does not carry reads as
	// the zero page.
	orphan := *img
	orphan.Files = nil
	if got := PageDigest(&orphan, pi, 0x7f0000000000); got != zeroPageDigest {
		t.Fatalf("page of a missing file: digest %#x, want the zero page %#x", got, zeroPageDigest)
	}

	ds := ImageDigests(img)
	if len(ds) != img.ResidentPages() {
		t.Fatalf("ImageDigests has %d entries, want %d", len(ds), img.ResidentPages())
	}
	if got := ds[PageKey{PCID: 0x101, VA: 0x1000000}]; got != anon {
		t.Fatalf("indexed anon digest %#x != %#x", got, anon)
	}
	if got := ds[PageKey{PCID: 0x101, VA: 0x7f0000000000}]; got != filePg {
		t.Fatalf("indexed file digest %#x != %#x", got, filePg)
	}

	// The per-snapshot index answers by ASID: the same lookups from any
	// container's PCID group, nothing for an ASID the image lacks.
	idx := NewDigestIndex(s)
	if !idx.Of(s) || idx.Of(sample()) {
		t.Fatal("index does not know the snapshot it was built from")
	}
	for _, pcid := range []uint16{0x101, 0x201, 0xff01} {
		for key, want := range ds {
			if got, ok := idx.Digest(pcid, key.VA); !ok || got != want {
				t.Fatalf("index pcid %#x va %#x = %#x, %v; want %#x", pcid, key.VA, got, ok, want)
			}
		}
	}
	if _, ok := idx.Digest(0x102, 0x1000000); ok {
		t.Fatal("index answered for an ASID the image does not have")
	}
}

// TestEncodeTo: appending into a caller buffer produces exactly the
// Encode bytes after the prefix, and reusing a warm buffer allocates
// nothing.
func TestEncodeTo(t *testing.T) {
	s := sample()
	plain := Encode(s)
	prefix := []byte("prefix")
	out := EncodeTo(s, append([]byte(nil), prefix...))
	if string(out[:len(prefix)]) != string(prefix) {
		t.Fatal("EncodeTo clobbered the prefix")
	}
	if string(out[len(prefix):]) != string(plain) {
		t.Fatal("EncodeTo payload differs from Encode")
	}
	if _, err := Decode(out[len(prefix):]); err != nil {
		t.Fatalf("EncodeTo payload does not decode: %v", err)
	}
	buf := make([]byte, 0, len(plain)+64)
	if allocs := testing.AllocsPerRun(50, func() {
		buf = EncodeTo(s, buf[:0])
	}); allocs != 0 {
		t.Fatalf("EncodeTo with a warm buffer allocates %v times per call, want 0", allocs)
	}
}
