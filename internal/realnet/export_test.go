package realnet

import "repro/internal/simnet"

// The codec's unexported surface, for the external tests that need
// core's wire types (core imports realnet).

const MaxDatagram = maxDatagram

type WireTypes = wireTypes

// Wire is the process-wide set RegisterWireType fills.
var Wire = wire

func NewWireTypes() *WireTypes { return newWireTypes() }

func (w *WireTypes) Register(value any) { w.register(value) }

func (w *WireTypes) Append(b []byte, from simnet.NodeID, msg simnet.Message) ([]byte, error) {
	return w.appendDatagram(b, from, msg)
}

func (w *WireTypes) Decode(b []byte) (simnet.NodeID, simnet.Message, error) {
	return w.decodeDatagram(b, nil)
}

// DecodeKnown decodes as a node whose peer table is known does.
func (w *WireTypes) DecodeKnown(b []byte, known map[string]simnet.NodeID) (simnet.NodeID, simnet.Message, error) {
	return w.decodeDatagram(b, known)
}
