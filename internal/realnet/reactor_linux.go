//go:build !386

package realnet

import (
	"fmt"
	"math"
	"net"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// sysEpollPwait2 is epoll_pwait2's number, 441 on every Linux
// architecture (kernel 5.11 and later); the syscall package predates it.
const sysEpollPwait2 = 441

// wakeSlot marks the eventfd in an epoll event's data; sockets carry
// their index in reactor.socks.
const wakeSlot = -1

// reactor is how a serialized cluster's loop waits on Linux: in epoll
// over every node's socket, a raw non-blocking UDP fd outside Go's
// netpoller, plus one eventfd that Do and an earlier heap entry write to
// wake it, with the heap's next due time as a nanosecond timeout. A
// ready socket gives up one datagram per poll, read into one buffer and
// dispatched on the loop, so no node has a reader goroutine, a buffer or
// a channel hop of its own. Everything but wake and close runs on the loop (or
// on the goroutine draining a stopped one). linux/386 reaches sendto
// only through socketcall, so it keeps the reader goroutines and a
// chanPoller (reactor_other.go).
type reactor struct {
	epfd   int
	efd    int    // the eventfd; -1 once closed (guarded by loop.mu)
	pwait2 bool   // epoll_pwait2 works; else EpollWait in whole ms
	one    uint64 // what wake writes
	count  uint64 // where next reads the eventfd's counter to reset it
	ts     syscall.Timespec
	socks  []*rawSocket // filled by listen before the loop starts
	ready  []syscall.EpollEvent
	head   int // next unread entry of ready
	buf    []byte
}

// newPoller returns a reactor for a serialized cluster's loop, or a
// chanPoller if the kernel refuses an epoll set or an eventfd.
func newPoller() poller {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return newChanPoller()
	}
	efd, _, e := syscall.Syscall(syscall.SYS_EVENTFD2, 0, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		syscall.Close(epfd)
		return newChanPoller()
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: wakeSlot}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, int(efd), &ev); err != nil {
		syscall.Close(int(efd))
		syscall.Close(epfd)
		return newChanPoller()
	}
	r := &reactor{
		epfd:  epfd,
		efd:   int(efd),
		one:   1,
		ready: make([]syscall.EpollEvent, 0, 128),
		buf:   make([]byte, maxDatagram),
	}
	// Probe with a zero timeout: a kernel before 5.11 answers ENOSYS, and
	// a seccomp filter may answer EPERM.
	_, _, e = syscall.Syscall6(sysEpollPwait2, uintptr(epfd), uintptr(unsafe.Pointer(&r.ready[:1][0])), 1, uintptr(unsafe.Pointer(&r.ts)), 0, 0)
	r.pwait2 = e == 0
	return r
}

// listen binds n's socket for the reactor to poll. bind must be an IPv4
// address.
func (r *reactor) listen(n *Node, bind string) (socket, error) {
	ua, err := net.ResolveUDPAddr("udp4", bind)
	if err != nil {
		return nil, fmt.Errorf("realnet: resolve %q: %w", bind, err)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, syscall.IPPROTO_UDP)
	if err != nil {
		return nil, fmt.Errorf("realnet: socket for %q: %w", bind, err)
	}
	// Best-effort, as for a net.UDPConn: the OS clamps to its limits.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, socketBuffer)
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, socketBuffer)
	sa := &syscall.SockaddrInet4{Port: ua.Port}
	if ip := ua.IP.To4(); ip != nil {
		copy(sa.Addr[:], ip)
	}
	if err := syscall.Bind(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("realnet: listen %q: %w", bind, err)
	}
	local, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("realnet: listen %q: %w", bind, err)
	}
	bound := local.(*syscall.SockaddrInet4)
	s := &rawSocket{fd: fd, node: n, addr: &net.UDPAddr{IP: net.IP(bound.Addr[:]).To16(), Port: bound.Port}}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(len(r.socks))}
	if err := syscall.EpollCtl(r.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("realnet: poll %q: %w", bind, err)
	}
	r.socks = append(r.socks, s)
	return s, nil
}

// next returns a Do callback waiting on the loop's channel, or one
// datagram from a socket the last poll found ready. With neither, and
// due later than now, it polls once, until due, and looks again; false
// means the poll brought no event: it timed out, was interrupted or was
// only a wake.
func (r *reactor) next(l *loop, now, due int64) (event, bool) {
	polled := false
	for {
		select {
		case ev := <-l.events:
			return ev, true
		default:
		}
		for r.head < len(r.ready) {
			slot := r.ready[r.head].Fd
			r.head++
			if slot == wakeSlot {
				syscall.Syscall(syscall.SYS_READ, uintptr(r.efd), uintptr(unsafe.Pointer(&r.count)), 8)
				continue
			}
			if ev, ok := r.read(r.socks[slot]); ok {
				return ev, true
			}
		}
		if polled || due <= now {
			return event{}, false
		}
		r.poll(now, due)
		polled = true
	}
}

// poll waits in epoll from now until due on the loop clock (forever at
// math.MaxInt64) and leaves what is ready in r.ready. It is a blocking
// Syscall6, never the raw form, so the runtime hands the thread's P on
// while it waits.
func (r *reactor) poll(now, due int64) {
	r.ready, r.head = r.ready[:cap(r.ready)], 0
	timeout := time.Duration(due - now)
	if due == math.MaxInt64 {
		timeout = -1
	}
	n := 0
	if r.pwait2 {
		var ts uintptr // nil: no limit
		if timeout >= 0 {
			r.ts = syscall.NsecToTimespec(int64(timeout))
			ts = uintptr(unsafe.Pointer(&r.ts))
		}
		k, _, e := syscall.Syscall6(sysEpollPwait2, uintptr(r.epfd), uintptr(unsafe.Pointer(&r.ready[0])), uintptr(len(r.ready)), ts, 0, 0)
		if e == 0 {
			n = int(k)
		}
	} else {
		ms := -1
		if timeout >= 0 {
			ms = int((timeout + time.Millisecond - 1) / time.Millisecond)
		}
		if k, err := syscall.EpollWait(r.epfd, r.ready, ms); err == nil {
			n = k
		}
	}
	// On EINTR nothing is ready: the caller recomputes its timeout and
	// waits again.
	r.ready = r.ready[:n]
}

// read takes one datagram off s and decodes it; false on a spurious
// readiness, a closed socket or a malformed datagram (counted).
func (r *reactor) read(s *rawSocket) (event, bool) {
	s.mu.RLock()
	if s.fd < 0 {
		s.mu.RUnlock()
		return event{}, false
	}
	sz, _, e := syscall.Syscall6(syscall.SYS_READ, uintptr(s.fd), uintptr(unsafe.Pointer(&r.buf[0])), uintptr(len(r.buf)), 0, 0, 0)
	s.mu.RUnlock()
	if e != 0 {
		return event{}, false
	}
	n := s.node
	from, msg, err := wire.decodeDatagram(r.buf[:sz], n.known)
	if err != nil {
		n.stat.malformed.Add(1)
		return event{}, false
	}
	return event{node: n, from: from, msg: msg}, true
}

// wake makes the loop's next poll return at once. Caller holds loop.mu.
func (r *reactor) wake() {
	if r.efd >= 0 {
		syscall.Syscall(syscall.SYS_WRITE, uintptr(r.efd), uintptr(unsafe.Pointer(&r.one)), 8)
	}
}

// queued wakes l if it sleeps in epoll, which a send on its channel
// does not end.
func (r *reactor) queued(l *loop) {
	l.mu.Lock()
	if l.armed {
		l.armed = false
		r.wake()
	}
	l.mu.Unlock()
}

// close releases the epoll set and the eventfd. Caller holds loop.mu.
func (r *reactor) close() {
	syscall.Close(r.efd)
	syscall.Close(r.epfd)
	r.efd = -1
}

// rawSocket is a node's socket under a reactor. mu keeps Close from
// releasing the fd, whose number the kernel may hand straight to
// another socket, while a read or a send from any goroutine uses it.
type rawSocket struct {
	mu   sync.RWMutex
	fd   int // -1 once closed
	node *Node
	addr *net.UDPAddr
}

func (s *rawSocket) localAddr() *net.UDPAddr { return s.addr }

// writeTo sends b to p without blocking: a full send buffer is
// errSendFull, never a wait.
func (s *rawSocket) writeTo(b []byte, p *peer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.fd < 0 {
		return net.ErrClosed
	}
	_, _, e := syscall.Syscall6(syscall.SYS_SENDTO, uintptr(s.fd), uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), 0, uintptr(unsafe.Pointer(&p.raw)), unsafe.Sizeof(p.raw))
	switch e {
	case 0:
		return nil
	case syscall.EAGAIN:
		return errSendFull
	default:
		return e
	}
}

// close releases the fd; closing it also takes it out of the epoll set.
func (s *rawSocket) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fd < 0 {
		return nil
	}
	err := syscall.Close(s.fd)
	s.fd = -1
	return err
}

// rawAddr is a peer's address as sendto takes it.
type rawAddr = syscall.RawSockaddrInet4

// toRawAddr converts an IPv4 address once, so a send allocates nothing;
// any other address stays zero and a raw send to it fails.
func toRawAddr(a *net.UDPAddr) rawAddr {
	var ra rawAddr
	ip := a.IP.To4()
	if ip == nil {
		return ra
	}
	ra.Family = syscall.AF_INET
	port := (*[2]byte)(unsafe.Pointer(&ra.Port))
	port[0], port[1] = byte(a.Port>>8), byte(a.Port) // network byte order
	copy(ra.Addr[:], ip)
	return ra
}
