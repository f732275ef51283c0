package guest

import (
	"repro/internal/clock"
)

// FS is the guest's in-memory filesystem (tmpfs). The paper's SQLite
// experiment stores the database on tmpfs precisely so that no
// virtualized block I/O is involved (§7.3) — throughput differences then
// come only from the syscall path, which is what Fig. 14 isolates.
type FS struct {
	k       *Kernel
	files   map[string]*Inode
	nextIno uint64
}

// Inode is a tmpfs file or directory.
type Inode struct {
	Ino  uint64
	Name string
	Data []byte
	// Dir marks directories (no Data; children are path-keyed).
	Dir bool
	// Dirty models unsynced state for fsync accounting.
	Dirty bool
	// shared marks Data as aliasing a checkpoint image's bytes (set by
	// restore). Images are immutable, so the inode takes a private copy
	// before its first in-place write: grow and own do that copy.
	shared bool
}

// Size returns the file length.
func (i *Inode) Size() uint64 { return uint64(len(i.Data)) }

// grow extends the file to size bytes (a no-op if it is already that
// long) and zero-fills the new range. Capacity at least doubles when it
// runs out, so a run of appends copies the file O(log n) times instead
// of once per write. The bytes between len and cap may be stale — a
// shrinking Ftruncate keeps the capacity — which is why the new range
// is cleared rather than assumed zero. A shared inode always copies:
// even growth within capacity would clear bytes of the image.
func (i *Inode) grow(size uint64) {
	old := uint64(len(i.Data))
	if size <= old {
		return
	}
	if c := uint64(cap(i.Data)); size > c || i.shared {
		grown := make([]byte, old, max(size, 2*c))
		copy(grown, i.Data)
		i.Data = grown
		i.shared = false
	}
	i.Data = i.Data[:size]
	clear(i.Data[old:])
}

// own gives a shared inode private bytes before an in-place overwrite.
func (i *Inode) own() {
	if i.shared {
		i.Data = append([]byte(nil), i.Data...)
		i.shared = false
	}
}

func newFS(k *Kernel) *FS {
	return &FS{k: k, files: make(map[string]*Inode), nextIno: 2}
}

// Lookup resolves a path (flat namespace) to an inode.
func (fs *FS) Lookup(path string) (*Inode, error) {
	ino, ok := fs.files[path]
	if !ok {
		return nil, ENOENT
	}
	return ino, nil
}

// Create makes a new file, failing if it exists.
func (fs *FS) Create(path string) (*Inode, error) {
	if _, ok := fs.files[path]; ok {
		return nil, EEXIST
	}
	ino := &Inode{Ino: fs.nextIno, Name: path}
	fs.nextIno++
	fs.files[path] = ino
	return ino, nil
}

// Remove unlinks a file.
func (fs *FS) Remove(path string) error {
	if _, ok := fs.files[path]; !ok {
		return ENOENT
	}
	delete(fs.files, path)
	return nil
}

// fileKind discriminates what an open File refers to.
type fileKind int

const (
	kindRegular fileKind = iota
	kindPipeR
	kindPipeW
	kindSock
)

// File is an open file description.
type File struct {
	kind    fileKind
	inode   *Inode
	pipe    *Pipe
	sock    *Sock
	pos     uint64
	append_ bool
}

// Pipe is a byte-stream pipe with a bounded buffer.
type Pipe struct {
	buf      []byte
	capacity int
	// writers/readers track open ends for EOF/EPIPE semantics.
	writers, readers int
}

// PipeCapacity matches the Linux default (64 KiB).
const PipeCapacity = 64 << 10

// Sock is one endpoint of a connected byte-stream socket pair.
type Sock struct {
	// rx is this endpoint's receive buffer; peer points at the other
	// endpoint, whose rx is our transmit target.
	rx   []byte
	peer *Sock
	open bool
	// kick is invoked on sends that cross a virtio boundary (external
	// connections); nil for AF_UNIX pairs. suppress models virtio
	// notification suppression: while set, transmits skip the doorbell.
	kick     func()
	suppress bool
}

// allocFD installs f in the process's descriptor table.
func (p *Proc) allocFD(f *File) int {
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = f
	return fd
}

func (p *Proc) file(fd int) (*File, error) {
	f, ok := p.fds[fd]
	if !ok {
		return nil, EBADF
	}
	return f, nil
}

// per-byte copy cost through the kernel (about 30 GB/s).
const bytesPerNano = 32

func copyCost(n int) clock.Time {
	return clock.FromNanos(float64(n) / bytesPerNano)
}

// --- file operation bodies (invoked by the syscall dispatcher) ---------

func (k *Kernel) fileRead(f *File, n int) ([]byte, error) {
	switch f.kind {
	case kindRegular:
		k.charge(sysBodyRead)
		data := f.inode.Data
		if f.pos >= uint64(len(data)) {
			return nil, nil // EOF
		}
		end := f.pos + uint64(n)
		if end > uint64(len(data)) {
			end = uint64(len(data))
		}
		// Capped at end, so appending to the result can never write
		// into the file.
		out := data[f.pos:end:end]
		f.pos = end
		k.charge(copyCost(len(out)))
		k.Stats.BytesRead += uint64(len(out))
		return out, nil
	case kindPipeR:
		k.charge(sysBodyPipeIO)
		p := f.pipe
		if len(p.buf) == 0 {
			if p.writers == 0 {
				return nil, nil // EOF
			}
			return nil, EAGAIN
		}
		if n > len(p.buf) {
			n = len(p.buf)
		}
		out := append([]byte(nil), p.buf[:n]...)
		p.buf = p.buf[n:]
		k.charge(copyCost(n))
		k.Stats.BytesRead += uint64(n)
		return out, nil
	case kindSock:
		k.charge(sysBodySockIO)
		s := f.sock
		if len(s.rx) == 0 {
			if s.peer == nil || !s.peer.open {
				return nil, nil
			}
			return nil, EAGAIN
		}
		if n > len(s.rx) {
			n = len(s.rx)
		}
		out := append([]byte(nil), s.rx[:n]...)
		s.rx = s.rx[n:]
		k.charge(copyCost(n))
		k.Stats.BytesRead += uint64(n)
		return out, nil
	default:
		return nil, EBADF
	}
}

func (k *Kernel) fileWrite(f *File, data []byte) (int, error) {
	switch f.kind {
	case kindRegular:
		k.charge(sysBodyWrite)
		ino := f.inode
		pos := f.pos
		if f.append_ {
			pos = ino.Size()
		}
		end := pos + uint64(len(data))
		// grow copies a shared inode it extends and own one it only
		// overwrites: one copy either way.
		ino.grow(end)
		ino.own()
		copy(ino.Data[pos:end], data)
		f.pos = end
		ino.Dirty = true
		k.charge(copyCost(len(data)))
		k.Stats.BytesWritten += uint64(len(data))
		return len(data), nil
	case kindPipeW:
		k.charge(sysBodyPipeIO)
		p := f.pipe
		if p.readers == 0 {
			return 0, EPIPE
		}
		room := p.capacity - len(p.buf)
		if room == 0 {
			return 0, EAGAIN
		}
		n := len(data)
		if n > room {
			n = room
		}
		p.buf = append(p.buf, data[:n]...)
		k.charge(copyCost(n))
		k.Stats.BytesWritten += uint64(n)
		return n, nil
	case kindSock:
		k.charge(sysBodySockIO)
		s := f.sock
		if s.peer == nil || !s.peer.open {
			return 0, EPIPE
		}
		s.peer.rx = append(s.peer.rx, data...)
		k.charge(copyCost(len(data)))
		k.Stats.BytesWritten += uint64(len(data))
		if s.kick != nil && !s.suppress {
			s.kick()
		}
		return len(data), nil
	default:
		return 0, EBADF
	}
}

// syscall body costs for file operations (guest kernel software).
var (
	sysBodyRead   = clock.FromNanos(150)
	sysBodyWrite  = clock.FromNanos(150)
	sysBodyPipeIO = clock.FromNanos(180)
	sysBodySockIO = clock.FromNanos(260)
	sysBodyOpen   = clock.FromNanos(500)
	sysBodyClose  = clock.FromNanos(80)
	sysBodyStat   = clock.FromNanos(400)
	sysBodyLseek  = clock.FromNanos(60)
	sysBodyFsync  = clock.FromNanos(900)
	sysBodyUnlink = clock.FromNanos(350)
	sysBodyPipe   = clock.FromNanos(300)
	sysBodySock   = clock.FromNanos(500)
	sysBodyTrunc  = clock.FromNanos(200)
	sysBodyPoll   = clock.FromNanos(120)
)
