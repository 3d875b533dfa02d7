//go:build !linux || 386

package realnet

import "net"

// newPoller returns a chanPoller: off Linux (and on linux/386) a
// serialized cluster's loop waits as every other loop does, and every
// node reads its socket on a goroutine of its own.
func newPoller() poller { return newChanPoller() }

// rawAddr is empty: only a Linux reactor's sockets send to raw
// addresses.
type rawAddr struct{}

func toRawAddr(*net.UDPAddr) rawAddr { return rawAddr{} }
