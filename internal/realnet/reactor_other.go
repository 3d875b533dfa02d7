//go:build !linux || 386

package realnet

import "net"

// newPoller returns nil: off Linux (and on linux/386) every loop waits on its channel and
// its clock, and every node reads its socket on a goroutine of its own.
func newPoller() poller { return nil }

// rawAddr is empty: only a Linux reactor's sockets send to raw
// addresses.
type rawAddr struct{}

func toRawAddr(*net.UDPAddr) rawAddr { return rawAddr{} }
