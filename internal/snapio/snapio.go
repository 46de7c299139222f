// Package snapio implements particle snapshot I/O the way the paper's
// runs needed it: binary records addressed with explicit 64-bit
// offsets ("since each data file exceeds 2^31 bytes, several I/O
// routines in our code had to be extended to support 64-bit
// integers"), striped across multiple files/disks (Loki wrote each
// 312 MB snapshot striped over its 16 disks at >50 MB/s aggregate),
// and checksummed headers so a restart can trust what it reads.
package snapio

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/vec"
)

// Magic identifies a snapshot stripe file.
const Magic = 0x484F545F534E4150 // "HOT_SNAP"

// Version is the on-disk format version.
const Version = 1

// recordBytes is the fixed size of one body record: pos(24) vel(24)
// mass(8) id(8).
const recordBytes = 64

// headerBytes is the fixed stripe header size.
const headerBytes = 64

var crcTable = crc64.MakeTable(crc64.ECMA)

// Header describes one stripe file.
type Header struct {
	Magic   uint64
	Version uint32
	Stripe  uint32 // index of this stripe
	Stripes uint32 // total stripes in the set
	_       uint32 // padding
	// NTotal is the global body count across all stripes; NLocal the
	// records in this file. Both 64-bit: snapshot sets larger than
	// 2^31 bodies are addressable.
	NTotal, NLocal int64
	// Offset is this stripe's first body index in the global set.
	Offset int64
	// Time is the simulation time of the snapshot.
	Time float64
	// CRC covers the body payload.
	CRC uint64
}

// stripeName returns the filename of stripe s.
func stripeName(dir, base string, s, total int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%03d-of-%03d.snap", base, s, total))
}

// WriteStriped writes the system as a set of stripe files. Bodies are
// split into contiguous runs, one per stripe, mirroring how Loki
// striped snapshots over its local disks.
func WriteStriped(dir, base string, sys *core.System, time float64, stripes int) error {
	if stripes < 1 {
		return fmt.Errorf("snapio: stripes must be >= 1")
	}
	n := int64(sys.Len())
	for s := 0; s < stripes; s++ {
		lo := n * int64(s) / int64(stripes)
		hi := n * int64(s+1) / int64(stripes)
		if err := writeStripe(stripeName(dir, base, s, stripes), sys, time, s, stripes, lo, hi, n); err != nil {
			return err
		}
	}
	return nil
}

func writeStripe(path string, sys *core.System, time float64, s, stripes int, lo, hi, total int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	payload := make([]byte, (hi-lo)*recordBytes)
	for i := lo; i < hi; i++ {
		encodeBody(payload[(i-lo)*recordBytes:], sys, int(i))
	}
	h := Header{
		Magic:   Magic,
		Version: Version,
		Stripe:  uint32(s),
		Stripes: uint32(stripes),
		NTotal:  total,
		NLocal:  hi - lo,
		Offset:  lo,
		Time:    time,
		CRC:     crc64.Checksum(payload, crcTable),
	}
	buf := make([]byte, headerBytes)
	encodeHeader(buf, &h)
	// Explicit 64-bit offsets: header at 0, payload at headerBytes.
	if _, err := f.WriteAt(buf, 0); err != nil {
		return err
	}
	if _, err := f.WriteAt(payload, int64(headerBytes)); err != nil {
		return err
	}
	return f.Sync()
}

// ReadStriped loads a striped snapshot set written by WriteStriped.
// The headers are checked before anything is allocated or indexed --
// the CRC covers only the payload, and the files come from disk -- so
// a hostile set is an error, never a panic: each stripe's records must
// fit in its file and inside [0, NTotal), every stripe must agree on
// NTotal, and the stripes must tile [0, NTotal) in order.
func ReadStriped(dir, base string, stripes int) (*core.System, float64, error) {
	if stripes < 1 {
		return nil, 0, fmt.Errorf("snapio: stripes must be >= 1")
	}
	hs := make([]*Header, stripes)
	payloads := make([][]byte, stripes)
	var next int64
	for s := range hs {
		h, payload, err := readStripe(stripeName(dir, base, s, stripes), s, stripes)
		if err != nil {
			return nil, 0, err
		}
		if s > 0 && h.NTotal != hs[0].NTotal || h.Offset != next {
			return nil, 0, fmt.Errorf("snapio: stripe %d (bodies %d+%d of %d) does not continue the set", s, h.Offset, h.NLocal, h.NTotal)
		}
		hs[s], payloads[s], next = h, payload, next+h.NLocal
	}
	if next != hs[0].NTotal {
		return nil, 0, fmt.Errorf("snapio: stripes hold %d of %d bodies", next, hs[0].NTotal)
	}
	sys := core.New(int(next))
	sys.EnableDynamics()
	for s, h := range hs {
		for i := int64(0); i < h.NLocal; i++ {
			decodeBody(payloads[s][i*recordBytes:], sys, int(h.Offset+i))
		}
	}
	return sys, hs[0].Time, nil
}

// readStripe reads and checks stripe s of a set of stripes: its header
// must name it, place its records inside [0, NTotal), and not claim
// more records than the file holds; its payload must match the CRC.
func readStripe(path string, s, stripes int) (*Header, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	buf := make([]byte, headerBytes)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, nil, fmt.Errorf("snapio: short header in %s: %w", path, err)
	}
	h := decodeHeader(buf)
	switch {
	case h.Magic != Magic:
		return nil, nil, fmt.Errorf("snapio: %s: bad magic %x", path, h.Magic)
	case h.Version != Version:
		return nil, nil, fmt.Errorf("snapio: %s: unsupported version %d", path, h.Version)
	case int(h.Stripes) != stripes || int(h.Stripe) != s:
		return nil, nil, fmt.Errorf("snapio: %s: says stripe %d of %d, expected %d of %d", path, h.Stripe, h.Stripes, s, stripes)
	case h.NLocal < 0 || h.Offset < 0 || h.Offset > h.NTotal || h.NLocal > h.NTotal-h.Offset:
		return nil, nil, fmt.Errorf("snapio: %s: bodies %d+%d outside [0, %d)", path, h.Offset, h.NLocal, h.NTotal)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if h.NLocal > (st.Size()-headerBytes)/recordBytes {
		return nil, nil, fmt.Errorf("snapio: %s: %d records claimed, the file holds %d bytes", path, h.NLocal, st.Size())
	}
	payload := make([]byte, h.NLocal*recordBytes)
	if _, err := f.ReadAt(payload, int64(headerBytes)); err != nil {
		return nil, nil, fmt.Errorf("snapio: short payload in %s: %w", path, err)
	}
	if crc := crc64.Checksum(payload, crcTable); crc != h.CRC {
		return nil, nil, fmt.Errorf("snapio: %s: checksum mismatch", path)
	}
	return h, payload, nil
}

func encodeHeader(b []byte, h *Header) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], h.Magic)
	le.PutUint32(b[8:], h.Version)
	le.PutUint32(b[12:], h.Stripe)
	le.PutUint32(b[16:], h.Stripes)
	le.PutUint64(b[24:], uint64(h.NTotal))
	le.PutUint64(b[32:], uint64(h.NLocal))
	le.PutUint64(b[40:], uint64(h.Offset))
	le.PutUint64(b[48:], floatBits(h.Time))
	le.PutUint64(b[56:], h.CRC)
}

func decodeHeader(b []byte) *Header {
	le := binary.LittleEndian
	return &Header{
		Magic:   le.Uint64(b[0:]),
		Version: le.Uint32(b[8:]),
		Stripe:  le.Uint32(b[12:]),
		Stripes: le.Uint32(b[16:]),
		NTotal:  int64(le.Uint64(b[24:])),
		NLocal:  int64(le.Uint64(b[32:])),
		Offset:  int64(le.Uint64(b[40:])),
		Time:    bitsFloat(le.Uint64(b[48:])),
		CRC:     le.Uint64(b[56:]),
	}
}

func encodeBody(b []byte, sys *core.System, i int) {
	le := binary.LittleEndian
	putV3 := func(off int, v vec.V3) {
		le.PutUint64(b[off:], floatBits(v.X))
		le.PutUint64(b[off+8:], floatBits(v.Y))
		le.PutUint64(b[off+16:], floatBits(v.Z))
	}
	putV3(0, sys.Pos[i])
	if sys.Vel != nil {
		putV3(24, sys.Vel[i])
	}
	le.PutUint64(b[48:], floatBits(sys.Mass[i]))
	le.PutUint64(b[56:], uint64(sys.ID[i]))
}

func decodeBody(b []byte, sys *core.System, i int) {
	le := binary.LittleEndian
	getV3 := func(off int) vec.V3 {
		return vec.V3{
			X: bitsFloat(le.Uint64(b[off:])),
			Y: bitsFloat(le.Uint64(b[off+8:])),
			Z: bitsFloat(le.Uint64(b[off+16:])),
		}
	}
	sys.Pos[i] = getV3(0)
	if sys.Vel != nil {
		sys.Vel[i] = getV3(24)
	}
	sys.Mass[i] = bitsFloat(le.Uint64(b[48:]))
	sys.ID[i] = int64(le.Uint64(b[56:]))
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// WriteAt64 writes a body record at an explicit 64-bit record index in
// an already-open stripe file: the primitive whose 32-bit predecessor
// the paper had to fix. Used for out-of-order parallel writes and by
// the large-offset test.
func WriteAt64(f *os.File, sys *core.System, i int, record int64) error {
	b := make([]byte, recordBytes)
	encodeBody(b, sys, i)
	_, err := f.WriteAt(b, int64(headerBytes)+record*recordBytes)
	return err
}

// ReadAt64 reads one record by 64-bit index.
func ReadAt64(f *os.File, sys *core.System, i int, record int64) error {
	b := make([]byte, recordBytes)
	if _, err := f.ReadAt(b, int64(headerBytes)+record*recordBytes); err != nil {
		return err
	}
	decodeBody(b, sys, i)
	return nil
}
