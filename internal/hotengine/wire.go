package hotengine

import (
	"fmt"
	"reflect"

	"repro/internal/grav"
	"repro/internal/keys"
)

// Wire is the packed cell record exchanged between ranks: in the
// branch allgather, the push and request replies. X is the physics'
// per-cell moment payload (nothing for gravity, the strength sum for
// vortex dynamics); Bodies is the physics' leaf body payload, present
// with pushed and requested leaves only and excluded from the fixed
// wire size (its cost is the per-body columns, accounted separately by
// the physics if desired).
type Wire[X, B any] struct {
	Key       keys.Key
	Mp        grav.Multipole
	Extra     X
	RCrit     float64
	N         int32
	ChildMask uint8
	Leaf      bool
	// Bodies carries leaf body columns (zero in branch messages).
	Bodies B
}

// CellWireBytes returns the packed wire size of one Wire[X, B] record
// (every fixed field, excluding the leaf body payload). This is the
// single place cell wire sizes come from: the traffic counters in
// internal/msg, and through them the perfmodel times, ride on these
// numbers, and deriving them from the struct keeps a payload change
// from silently skewing the accounting.
func CellWireBytes[X, B any]() int {
	t := reflect.TypeOf((*Wire[X, B])(nil)).Elem()
	size := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "Bodies" {
			continue
		}
		size += packedSize(f.Type)
	}
	return size
}

// KeyWireBytes is the packed size of one cell request (a bare key).
func KeyWireBytes() int {
	return packedSize(reflect.TypeOf(keys.Key(0)))
}

// packedSize returns the size of a value of type t packed with no
// alignment padding, the convention the wire accounting has always
// used (a bool is one byte, a key eight). Types with no well-defined
// packed size (slices, maps, pointers, strings) panic: they must not
// appear in the fixed part of a wire record.
func packedSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int64, reflect.Uint64, reflect.Float64, reflect.Int, reflect.Uint, reflect.Complex64:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.Array:
		return t.Len() * packedSize(t.Elem())
	case reflect.Struct:
		size := 0
		for i := 0; i < t.NumField(); i++ {
			size += packedSize(t.Field(i).Type)
		}
		return size
	default:
		panic(fmt.Sprintf("hotengine: type %v has no packed wire size", t))
	}
}
