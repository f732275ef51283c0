package workloads

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/backends"
	"repro/internal/clock"
)

// A SQLite-like embedded storage engine driven by sqlite-bench's access
// patterns (Fig. 14/15). The database lives in a tmpfs file — exactly
// the paper's setup, chosen so no virtualized block I/O is involved and
// throughput differences are produced purely by the syscall path.
//
// The engine is real software: a paged table file plus a rollback
// journal, an in-process page cache, binary row encoding, and the
// journal-write → page-write → fsync commit protocol. Write-heavy
// workloads are therefore syscall-dense (the paper measures up to
// ~0.5 M syscalls/s) while warm reads run from the page cache with
// almost no syscalls — which is why PVM loses 19–24% on fills and
// nothing on reads.

const (
	dbPageSize    = 4096
	rowsPerPage   = 16
	rowSize       = dbPageSize / rowsPerPage
	dbCachePages  = 4096 // large enough to hold the benchmark tables
	valueSize     = 100  // sqlite-bench default value size
	enginePutWork = 2200 // ns: parsing, B-tree maintenance, encoding
	engineGetWork = 650  // ns: lookup + decode
)

// SQLiteDB is one open database.
type SQLiteDB struct {
	c     *backends.Container
	dbFD  int
	jrnFD int
	cache map[uint64][]byte
	dirty map[uint64]bool
	// flush is Commit's reusable buffer of dirty page numbers.
	flush []uint64
	rows  uint64
	// jpos is the rollback journal's append cursor.
	jpos uint64
}

// OpenSQLite creates (or opens) a database on the container's tmpfs.
func OpenSQLite(c *backends.Container, name string) (*SQLiteDB, error) {
	dbFD, err := c.K.Open("/"+name+".db", true)
	if err != nil {
		return nil, err
	}
	jrnFD, err := c.K.Open("/"+name+".db-journal", true)
	if err != nil {
		return nil, err
	}
	return &SQLiteDB{
		c:     c,
		dbFD:  dbFD,
		jrnFD: jrnFD,
		cache: make(map[uint64][]byte),
		dirty: make(map[uint64]bool),
	}, nil
}

func (d *SQLiteDB) pageOf(key uint64) uint64 { return key / rowsPerPage }

// loadPage brings a page into the cache (pread on miss).
func (d *SQLiteDB) loadPage(pg uint64) ([]byte, error) {
	if p, ok := d.cache[pg]; ok {
		return p, nil
	}
	data, err := d.c.K.Pread(d.dbFD, dbPageSize, pg*dbPageSize)
	if err != nil {
		return nil, err
	}
	p := make([]byte, dbPageSize)
	copy(p, data)
	if len(d.cache) >= dbCachePages {
		// Drop the lowest-numbered clean page: a fixed choice, so the
		// miss pattern (and with it the syscall trace) never depends on
		// map iteration order.
		victim, found := uint64(0), false
		for cached := range d.cache {
			if !d.dirty[cached] && (!found || cached < victim) {
				victim, found = cached, true
			}
		}
		if found {
			delete(d.cache, victim)
		}
	}
	d.cache[pg] = p
	return p, nil
}

// Put writes one row. When sync is set the commit protocol runs
// immediately (journal write, page write, two fsyncs); batched callers
// defer it to Commit.
func (d *SQLiteDB) Put(key uint64, value []byte, sync bool) error {
	k := d.c.K
	pg := d.pageOf(key)
	page, err := d.loadPage(pg)
	if err != nil {
		return err
	}
	k.Compute(clock.FromNanos(enginePutWork))
	off := (key % rowsPerPage) * rowSize
	binary.LittleEndian.PutUint64(page[off:], key)
	copy(page[off+8:off+8+uint64(len(value))], value)
	d.dirty[pg] = true
	if key >= d.rows {
		d.rows = key + 1
	}
	// Journal the statement immediately (rollback-journal discipline:
	// the before-image is written before the page may be flushed).
	rec := page[off : off+rowSize]
	if _, err := k.Pwrite(d.jrnFD, rec, d.jpos); err != nil {
		return err
	}
	d.jpos += rowSize
	if sync {
		return d.Commit()
	}
	return nil
}

// Commit flushes dirty pages with the journal protocol, in ascending
// page order as a real pager writes them back.
func (d *SQLiteDB) Commit() error {
	k := d.c.K
	d.flush = d.flush[:0]
	for pg := range d.dirty {
		d.flush = append(d.flush, pg)
	}
	slices.Sort(d.flush)
	for _, pg := range d.flush {
		if _, err := k.Pwrite(d.dbFD, d.cache[pg], pg*dbPageSize); err != nil {
			return err
		}
		delete(d.dirty, pg)
	}
	if err := k.Fsync(d.jrnFD); err != nil {
		return err
	}
	if err := k.Fsync(d.dbFD); err != nil {
		return err
	}
	// Truncating the journal marks the transaction durable.
	d.jpos = 0
	return k.Ftruncate(d.jrnFD, 0)
}

// Get reads one row.
func (d *SQLiteDB) Get(key uint64) ([]byte, error) {
	page, err := d.loadPage(d.pageOf(key))
	if err != nil {
		return nil, err
	}
	d.c.K.Compute(clock.FromNanos(engineGetWork))
	off := (key % rowsPerPage) * rowSize
	got := binary.LittleEndian.Uint64(page[off:])
	if got != key {
		return nil, fmt.Errorf("sqlite: row %d holds key %d", key, got)
	}
	return page[off+8 : off+8+valueSize], nil
}

// SQLiteCase is one sqlite-bench workload.
type SQLiteCase struct {
	CaseName string
	Entries  int
	// Batch is the transaction size (1 = sync per op).
	Batch int
	// Random selects random-key order.
	Random bool
	// Read makes it a read benchmark (over a pre-filled table).
	Read bool
	// Overwrite rewrites existing keys (over a pre-filled table).
	Overwrite bool
}

// Name implements Runner.
func (s SQLiteCase) Name() string { return "sqlite/" + s.CaseName }

// Run implements Runner.
func (s SQLiteCase) Run(c *backends.Container) (Result, error) {
	db, err := OpenSQLite(c, s.CaseName)
	if err != nil {
		return Result{}, err
	}
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = byte(i)
	}
	r := rng()
	if s.Read || s.Overwrite {
		// Pre-fill outside the measurement.
		for i := 0; i < s.Entries; i++ {
			if err := db.Put(uint64(i), value, false); err != nil {
				return Result{}, err
			}
		}
		if err := db.Commit(); err != nil {
			return Result{}, err
		}
	}
	return measure(c, s.Name(), s.Entries, func() error {
		for i := 0; i < s.Entries; i++ {
			key := uint64(i)
			if s.Random {
				key = uint64(r.Intn(s.Entries))
			}
			switch {
			case s.Read:
				if _, err := db.Get(key); err != nil {
					return err
				}
			default:
				if err := db.Put(key, value, s.Batch <= 1); err != nil {
					return err
				}
				if s.Batch > 1 && (i+1)%s.Batch == 0 {
					if err := db.Commit(); err != nil {
						return err
					}
				}
			}
		}
		if s.Batch > 1 && !s.Read {
			return db.Commit()
		}
		return nil
	})
}

// Fig14Cases returns the seven sqlite-bench workloads sized by scale.
func Fig14Cases(scale int) []SQLiteCase {
	if scale < 1 {
		scale = 1
	}
	n := 600 * scale
	return []SQLiteCase{
		{CaseName: "fillseq", Entries: n, Batch: 1},
		{CaseName: "fillseqbatch", Entries: n, Batch: 100},
		{CaseName: "fillrandom", Entries: n, Batch: 1, Random: true},
		{CaseName: "fillrandbatch", Entries: n, Batch: 100, Random: true},
		{CaseName: "overwritebatch", Entries: n, Batch: 100, Random: true, Overwrite: true},
		{CaseName: "readseq", Entries: n * 4, Read: true},
		{CaseName: "readrandom", Entries: n * 4, Read: true, Random: true},
	}
}
