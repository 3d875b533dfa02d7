package serve

import (
	"errors"
	"sync"

	"repro/internal/obs"
)

// StreamEvent is one SSE payload: a data item applied on this node
// (locally written or admitted from a peer) or a membership
// transition.
type StreamEvent struct {
	Type   string `json:"type"` // "data" or "member"
	Key    string `json:"key,omitempty"`
	Value  any    `json:"value,omitempty"`
	From   string `json:"from,omitempty"` // "local" or the peer node id
	Member string `json:"member,omitempty"`
	Status string `json:"status,omitempty"`
}

// subscriber is one stream consumer; its channel is closed only by the
// hub on shutdown.
type subscriber struct {
	ch chan StreamEvent
}

// streamBuffer is each subscriber's event buffer; events beyond it are
// dropped for that subscriber.
const streamBuffer = 64

// maxStreams bounds concurrent stream subscribers.
const maxStreams = 1024

// hub fans events out to subscribers. Publishes never block: a
// subscriber whose buffer is full loses that event (counted), so one
// slow reader cannot stall the event loop the publishers run on.
type hub struct {
	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	closed  bool
	gauge   *obs.Gauge
	dropped *obs.Counter
}

func newHub(gauge *obs.Gauge, dropped *obs.Counter) *hub {
	return &hub{
		subs:    make(map[*subscriber]struct{}),
		gauge:   gauge,
		dropped: dropped,
	}
}

var (
	errHubClosed = errors.New("draining")
	errHubFull   = errors.New("too many stream subscribers")
)

func (h *hub) subscribe() (*subscriber, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errHubClosed
	}
	if len(h.subs) >= maxStreams {
		return nil, errHubFull
	}
	sub := &subscriber{ch: make(chan StreamEvent, streamBuffer)}
	h.subs[sub] = struct{}{}
	h.gauge.Set(float64(len(h.subs)))
	return sub, nil
}

// unsubscribe detaches a consumer; its channel is left to the garbage
// collector (only close, under the lock, closes channels).
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		h.gauge.Set(float64(len(h.subs)))
	}
}

// publish delivers ev to every subscriber that has buffer room.
func (h *hub) publish(ev StreamEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			h.dropped.Inc()
		}
	}
}

// close ends every subscription: channels are closed so blocked stream
// handlers wake up and return, letting the HTTP server's graceful
// shutdown complete.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for sub := range h.subs {
		close(sub.ch)
		delete(h.subs, sub)
	}
	h.gauge.Set(0)
}
