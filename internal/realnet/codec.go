package realnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"sync"

	"repro/internal/simnet"
)

// The wire codec (the package comment has the why). One datagram is
//
//	[version byte][From: length-prefixed string][payload]
//
// where a payload — and every interface-typed field nested inside one
// — is a 4-byte type tag followed by the value's fields in declaration
// order. A tag is the FNV-1a hash of the registered type's full name
// (package path + type name), so it is the same in every process
// whatever order types were registered in; tag 0 is the nil interface.
//
// Field encodings: bool one byte (0 or 1); signed integers zig-zag
// varints, unsigned uvarints, both range-checked against the field's
// width on decode; float32/float64 their IEEE bits little-endian;
// string and []byte a uvarint length and the bytes; slices and maps a
// uvarint count and the elements, map entries sorted by key so equal
// values have equal bytes; structs their exported fields in order. As
// under gob, an empty slice arrives nil while a map arrives nil or
// empty as it was sent (its count goes out plus one, zero meaning nil). Pointers, arrays, channels, funcs,
// complex numbers and recursive types are refused at registration.
const (
	wireVersion = 1

	// maxWireDepth bounds how deep interface values may nest inside a
	// payload (the city's deepest is 4: mux envelope → sync frame →
	// entry value → item value). Plans are finite trees, so interfaces
	// are the only way a hostile datagram could recurse.
	maxWireDepth = 16
)

var (
	errTruncated = errors.New("realnet: truncated datagram")
	errOversize  = errors.New("realnet: datagram exceeds 64 KiB")
	errVersion   = errors.New("realnet: unknown wire version")
	errTrailing  = errors.New("realnet: trailing bytes after payload")
	errNilMsg    = errors.New("realnet: nil message")
	errDepth     = errors.New("realnet: interface nesting too deep")
	errRange     = errors.New("realnet: value out of range for its field")
)

// plan is the compiled encode/decode recipe for one Go type.
type plan struct {
	typ    reflect.Type
	kind   reflect.Kind
	tag    uint32 // nonzero for registered types only
	min    int    // least encoded size; bounds slice and map counts on decode
	key    *plan  // map key
	elem   *plan  // slice element (nil for []byte) or map value
	fields []planField
}

type planField struct {
	index int
	plan  *plan
}

// wireTypes is a set of registered types. Production code uses the one
// package-level set; tests build private ones to prove that bytes do
// not depend on registration order.
type wireTypes struct {
	mu     sync.RWMutex
	byType map[reflect.Type]*plan
	byTag  map[uint32]*plan
}

// newWireTypes returns a set holding the built-in scalars an interface
// field may carry, and simnet.Envelope, which every simnet.Port
// carries, without the application registering anything.
func newWireTypes() *wireTypes {
	w := &wireTypes{byType: make(map[reflect.Type]*plan), byTag: make(map[uint32]*plan)}
	for _, v := range []any{
		false, int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), "", []byte(nil), simnet.Envelope{},
	} {
		w.register(v)
	}
	return w
}

// wire is the process-wide set RegisterWireType fills.
var wire = newWireTypes()

// RegisterWireType makes a message type encodable. Call once per
// concrete message type before any node starts (protocol packages
// export RegisterWire helpers that do this for their types).
// Registering a type twice is a no-op. It panics — at start-up, never
// on the wire — if the type contains a kind the codec does not carry
// or its name hashes to the tag of another registered type.
func RegisterWireType(value any) {
	wire.register(value)
}

// wireName is the name a type's tag derives from: the full import path
// for named types, so two packages with the same base name cannot
// collide, and the type expression for unnamed ones.
func wireName(t reflect.Type) string {
	if t.PkgPath() != "" {
		return t.PkgPath() + "." + t.Name()
	}
	return t.String()
}

func (w *wireTypes) register(value any) {
	t := reflect.TypeOf(value)
	if t == nil {
		panic("realnet: RegisterWireType(nil)")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.byType[t] != nil {
		return
	}
	name := wireName(t)
	h := fnv.New32a()
	h.Write([]byte(name))
	tag := h.Sum32()
	if tag == 0 {
		panic(fmt.Sprintf("realnet: wire type %s hashes to the nil tag", name))
	}
	if other := w.byTag[tag]; other != nil {
		panic(fmt.Sprintf("realnet: wire types %s and %s share tag %#08x", name, wireName(other.typ), tag))
	}
	p := compilePlan(t, map[reflect.Type]bool{})
	p.tag = tag
	w.byType[t] = p
	w.byTag[tag] = p
}

// compilePlan builds the plan for t; visiting holds the types on the
// current path, so a type that contains itself is caught here and not
// by a stack overflow.
func compilePlan(t reflect.Type, visiting map[reflect.Type]bool) *plan {
	if visiting[t] {
		panic(fmt.Sprintf("realnet: wire type %s is recursive", t))
	}
	visiting[t] = true
	defer delete(visiting, t)

	p := &plan{typ: t, kind: t.Kind(), min: 1}
	switch p.kind {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	case reflect.Float32, reflect.Interface:
		p.min = 4
	case reflect.Float64:
		p.min = 8
	case reflect.Slice:
		if t.Elem().Kind() != reflect.Uint8 {
			p.elem = compilePlan(t.Elem(), visiting)
		}
	case reflect.Map:
		p.key = compilePlan(t.Key(), visiting)
		if k := p.key.kind; k != reflect.String && (k < reflect.Int || k > reflect.Uint64) {
			panic(fmt.Sprintf("realnet: wire type %s: map keys must be integers or strings", t))
		}
		p.elem = compilePlan(t.Elem(), visiting)
	case reflect.Struct:
		p.min = 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fp := compilePlan(f.Type, visiting)
				p.fields = append(p.fields, planField{i, fp})
				p.min += fp.min
			}
		}
	default:
		panic(fmt.Sprintf("realnet: wire type %s: kind %s is not supported", t, p.kind))
	}
	return p
}

// appendDatagram appends the encoding of one datagram to b. It fails
// on a nil or unregistered message type and on interface nesting past
// maxWireDepth; the caller checks the size cap.
func (w *wireTypes) appendDatagram(b []byte, from simnet.NodeID, msg simnet.Message) ([]byte, error) {
	if msg == nil {
		return b, errNilMsg
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, uint64(len(from)))
	b = append(b, from...)
	return w.appendTagged(b, reflect.ValueOf(msg), 0)
}

// appendTagged writes a concrete value behind its type tag.
func (w *wireTypes) appendTagged(b []byte, v reflect.Value, depth int) ([]byte, error) {
	p := w.byType[v.Type()]
	if p == nil {
		return b, fmt.Errorf("realnet: type %s is not registered", v.Type())
	}
	if depth >= maxWireDepth {
		return b, errDepth
	}
	b = binary.LittleEndian.AppendUint32(b, p.tag)
	return w.appendValue(b, p, v, depth+1)
}

func (w *wireTypes) appendValue(b []byte, p *plan, v reflect.Value, depth int) ([]byte, error) {
	var err error
	switch p.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint()), nil
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float()))), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
	case reflect.String:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...), nil
	case reflect.Slice:
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n))
		if p.elem == nil {
			return append(b, v.Bytes()...), nil
		}
		for i := 0; i < n; i++ {
			if b, err = w.appendValue(b, p.elem, v.Index(i), depth); err != nil {
				return b, err
			}
		}
	case reflect.Map:
		if v.IsNil() {
			return append(b, 0), nil
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
		b = binary.AppendUvarint(b, uint64(len(keys))+1)
		for _, k := range keys {
			if b, err = w.appendValue(b, p.key, k, depth); err != nil {
				return b, err
			}
			if b, err = w.appendValue(b, p.elem, v.MapIndex(k), depth); err != nil {
				return b, err
			}
		}
	case reflect.Struct:
		for _, f := range p.fields {
			if b, err = w.appendValue(b, f.plan, v.Field(f.index), depth); err != nil {
				return b, err
			}
		}
	case reflect.Interface:
		if v.IsNil() {
			return append(b, 0, 0, 0, 0), nil
		}
		return w.appendTagged(b, v.Elem(), depth)
	}
	return b, nil
}

// keyLess orders map keys of one integer or string type.
func keyLess(a, b reflect.Value) bool {
	switch {
	case a.CanInt():
		return a.Int() < b.Int()
	case a.CanUint():
		return a.Uint() < b.Uint()
	}
	return a.String() < b.String()
}

// decodeDatagram parses one datagram. It never panics and never
// allocates more than a small multiple of len(b): every length and
// count is checked against the bytes that remain before anything is
// made. The returned message shares no memory with b. A sender named
// in known comes back as known's NodeID, so its name is not allocated
// again; any other sender decodes to a fresh string.
func (w *wireTypes) decodeDatagram(b []byte, known map[string]simnet.NodeID) (simnet.NodeID, simnet.Message, error) {
	if len(b) > maxDatagram {
		return "", nil, errOversize
	}
	if len(b) == 0 || b[0] != wireVersion {
		return "", nil, errVersion
	}
	n, b, err := readCount(b[1:], 1)
	if err != nil {
		return "", nil, err
	}
	from, ok := known[string(b[:n])]
	if !ok {
		from = simnet.NodeID(b[:n])
	}
	b = b[n:]
	w.mu.RLock()
	defer w.mu.RUnlock()
	v, b, err := w.decodeTagged(b, 0)
	switch {
	case err != nil:
		return "", nil, err
	case !v.IsValid():
		return "", nil, errNilMsg
	case len(b) != 0:
		return "", nil, errTrailing
	}
	return from, v.Interface(), nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return x, b[n:], nil
}

// readCount reads a uvarint length or element count and checks that
// count elements of at least min bytes each can still follow.
func readCount(b []byte, min int) (int, []byte, error) {
	x, b, err := readUvarint(b)
	if err != nil || x > uint64(len(b)/max(min, 1)) {
		return 0, nil, errTruncated
	}
	return int(x), b, nil
}

// decodeTagged reads a type tag and the value behind it; the nil tag
// yields the zero reflect.Value.
func (w *wireTypes) decodeTagged(b []byte, depth int) (reflect.Value, []byte, error) {
	if len(b) < 4 {
		return reflect.Value{}, nil, errTruncated
	}
	tag, b := binary.LittleEndian.Uint32(b), b[4:]
	if tag == 0 {
		return reflect.Value{}, b, nil
	}
	p := w.byTag[tag]
	if p == nil {
		return reflect.Value{}, nil, fmt.Errorf("realnet: unknown wire type tag %#08x", tag)
	}
	if depth >= maxWireDepth {
		return reflect.Value{}, nil, errDepth
	}
	v := reflect.New(p.typ).Elem()
	b, err := w.decodeValue(b, p, v, depth+1)
	return v, b, err
}

// decodeValue fills v, a settable zero value of p's type.
func (w *wireTypes) decodeValue(b []byte, p *plan, v reflect.Value, depth int) ([]byte, error) {
	switch p.kind {
	case reflect.Bool:
		if len(b) < 1 {
			return nil, errTruncated
		}
		if b[0] > 1 {
			return nil, errRange
		}
		v.SetBool(b[0] == 1)
		return b[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		if v.OverflowInt(x) {
			return nil, errRange
		}
		v.SetInt(x)
		return b[n:], nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, b, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		if v.OverflowUint(x) {
			return nil, errRange
		}
		v.SetUint(x)
		return b, nil
	case reflect.Float32:
		if len(b) < 4 {
			return nil, errTruncated
		}
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
		return b[4:], nil
	case reflect.Float64:
		if len(b) < 8 {
			return nil, errTruncated
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		return b[8:], nil
	case reflect.String:
		n, b, err := readCount(b, 1)
		if err != nil {
			return nil, err
		}
		v.SetString(string(b[:n]))
		return b[n:], nil
	case reflect.Slice:
		min := 1 // one byte of a []byte
		if p.elem != nil {
			min = p.elem.min
		}
		n, b, err := readCount(b, min)
		if err != nil || n == 0 {
			return b, err
		}
		if p.elem == nil {
			v.SetBytes(append([]byte(nil), b[:n]...))
			return b[n:], nil
		}
		s := reflect.MakeSlice(p.typ, n, n)
		for i := 0; i < n; i++ {
			if b, err = w.decodeValue(b, p.elem, s.Index(i), depth); err != nil {
				return nil, err
			}
		}
		v.Set(s)
		return b, nil
	case reflect.Map:
		x, b, err := readUvarint(b)
		if err != nil || x == 0 { // zero is the nil map
			return b, err
		}
		if x-1 > uint64(len(b)/(p.key.min+p.elem.min)) {
			return nil, errTruncated
		}
		n := int(x - 1)
		m := reflect.MakeMapWithSize(p.typ, n)
		k, e := reflect.New(p.key.typ).Elem(), reflect.New(p.elem.typ).Elem()
		for i := 0; i < n; i++ {
			k.SetZero()
			e.SetZero()
			if b, err = w.decodeValue(b, p.key, k, depth); err != nil {
				return nil, err
			}
			if b, err = w.decodeValue(b, p.elem, e, depth); err != nil {
				return nil, err
			}
			m.SetMapIndex(k, e)
		}
		v.Set(m)
		return b, nil
	case reflect.Struct:
		var err error
		for _, f := range p.fields {
			if b, err = w.decodeValue(b, f.plan, v.Field(f.index), depth); err != nil {
				return nil, err
			}
		}
		return b, nil
	case reflect.Interface:
		e, b, err := w.decodeTagged(b, depth)
		if err != nil || !e.IsValid() {
			return b, err
		}
		if p.typ.NumMethod() > 0 && !e.Type().Implements(p.typ) {
			return nil, fmt.Errorf("realnet: %s does not implement %s", e.Type(), p.typ)
		}
		v.Set(e)
		return b, nil
	}
	return nil, fmt.Errorf("realnet: no decoder for kind %s", p.kind)
}
