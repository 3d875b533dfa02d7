// Package pubsub implements topic-based publish/subscribe messaging
// with a broker, at-most-once (QoS 0) and at-least-once (QoS 1)
// delivery. Brokered pub/sub is the communication archetype of the
// paper's ML1–ML3 maturity levels (§III, Table 1): a cloud- or
// gateway-hosted broker is simple and effective, but it is a central
// point of failure — precisely the dependence the Table 1/2 experiment
// quantifies against the decentralized ML4 data plane.
package pubsub

import (
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// QoS selects delivery semantics.
type QoS int

// Supported delivery semantics.
const (
	// AtMostOnce publishes fire-and-forget.
	AtMostOnce QoS = iota + 1
	// AtLeastOnce retries until the broker acknowledges.
	AtLeastOnce
)

// Wire messages.

type subscribeMsg struct {
	Topic string
}

type publishMsg struct {
	ID      uint64 // nonzero for QoS 1
	Topic   string
	Payload any
}

type deliverMsg struct {
	Topic   string
	Payload any
	// SentAt is the broker's fan-out timestamp (bus clock), carried so
	// subscribers can publish end-to-end delivery latency. Zero when
	// the broker has no active bus.
	SentAt time.Duration
}

// RegisterWire registers the broker protocol's messages with a wire
// codec (e.g. realnet's datagram codec). Payload types carried inside
// publishMsg/deliverMsg must be registered by the application.
func RegisterWire(register func(any)) {
	register(subscribeMsg{})
	register(publishMsg{})
	register(deliverMsg{})
}

func (m subscribeMsg) Size() int { return 8 + len(m.Topic) }
func (m publishMsg) Size() int   { return 16 + len(m.Topic) + payloadSize(m.Payload) }
func (m deliverMsg) Size() int   { return 8 + len(m.Topic) + payloadSize(m.Payload) }

// envPubAck is the envelope acknowledging a QoS-1 publication: A=ID,
// 12 bytes.
const envPubAck uint16 = 1

func payloadSize(p any) int {
	if s, ok := p.(simnet.Sized); ok {
		return s.Size()
	}
	return 64
}

// Broker hosts topics and fans publications out to subscribers. It is
// deliberately stateless across crashes: while the broker node is down,
// everything published is lost, and subscriptions survive only because
// they are broker-side state created before the crash is wiped — a
// faithful model of a non-replicated broker deployment.
type Broker struct {
	ep simnet.Port
	// subs has one row per subscribed pattern, and wild lists, in
	// pattern order, the rows whose pattern holds a wildcard character.
	// A pattern without one covers the topic spelled like it and no
	// other, so a publication finds its rows with one lookup in subs
	// plus a TopicMatches walk over wild, and finds them in pattern
	// order: the order of the sends, which the seed alone must decide.
	subs map[string]*subscription
	wild []*subscription
	// retained holds each topic's last retained publication (MQTT-style:
	// handed to future subscribers immediately). It is broker-volatile:
	// a restart loses it.
	retained map[string]any

	bus *obs.Bus
}

// subscription is one pattern's row in the broker's topic table.
type subscription struct {
	pattern string
	// ids are the network subscribers, sorted.
	ids []simnet.NodeID
	// local are in-process subscribers: applications colocated with
	// the broker (e.g. a cloud-side controller next to a cloud
	// broker). They are part of the application deployment, so unlike
	// network subscriptions they survive broker restarts.
	local []MessageHandler
}

// NewBroker installs a broker on ep.
func NewBroker(ep simnet.Port) *Broker {
	b := &Broker{
		ep:       ep,
		subs:     make(map[string]*subscription),
		retained: make(map[string]any),
	}
	ep.OnMessage(b.handle)
	ep.OnUp(func() {
		// A restarted broker has lost its network subscriptions and its
		// retained messages; rows with local subscribers stay.
		for pattern, s := range b.subs {
			s.ids = nil
			if len(s.local) == 0 {
				delete(b.subs, pattern)
			}
		}
		b.wild = slices.DeleteFunc(b.wild, func(s *subscription) bool { return len(s.local) == 0 })
		b.retained = make(map[string]any)
	})
	return b
}

// SetBus attaches an observability bus. Each fan-out is published as a
// "pubsub.publish" instant; deliveries are stamped so subscribing
// clients with a bus can report "pubsub.deliver" latency spans.
func (b *Broker) SetBus(bus *obs.Bus) { b.bus = bus }

// isWild reports whether a pattern may cover a topic other than the
// one spelled like it. Any "+" or "#" counts, level of its own or not:
// a row wrongly listed in wild is still matched correctly.
func isWild(pattern string) bool { return strings.ContainsAny(pattern, "+#") }

// row returns the table row of a pattern, adding it on first use.
func (b *Broker) row(pattern string) *subscription {
	s := b.subs[pattern]
	if s == nil {
		s = &subscription{pattern: pattern}
		b.subs[pattern] = s
		if isWild(pattern) {
			i, _ := slices.BinarySearchFunc(b.wild, pattern, func(w *subscription, p string) int {
				return strings.Compare(w.pattern, p)
			})
			b.wild = slices.Insert(b.wild, i, s)
		}
	}
	return s
}

// covering appends to dst the rows whose pattern covers topic, in
// pattern order.
func (b *Broker) covering(dst []*subscription, topic string) []*subscription {
	exact := b.subs[topic]
	if exact != nil && isWild(topic) {
		exact = nil // a topic spelled like a pattern: its row is in wild
	}
	for _, w := range b.wild {
		if exact != nil && topic < w.pattern {
			dst = append(dst, exact)
			exact = nil
		}
		if TopicMatches(w.pattern, topic) {
			dst = append(dst, w)
		}
	}
	if exact != nil {
		dst = append(dst, exact)
	}
	return dst
}

// SubscribeLocal registers an in-process subscriber colocated with the
// broker. Local handlers run synchronously at publish fan-out time and
// survive broker restarts (they are application wiring, not protocol
// state).
func (b *Broker) SubscribeLocal(topic string, h MessageHandler) {
	s := b.row(topic)
	s.local = append(s.local, h)
}

// InjectRetained publishes a message on behalf of an application
// colocated with the broker (no network hop to reach the broker), and
// makes the payload the topic's retained state for future subscribers.
func (b *Broker) InjectRetained(topic string, payload any) {
	b.retained[topic] = payload
	b.fanOut("", topic, payload)
}

func (b *Broker) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case subscribeMsg:
		s := b.row(m.Topic)
		i, dup := slices.BinarySearch(s.ids, from)
		if dup {
			return
		}
		s.ids = slices.Insert(s.ids, i, from)
		// Hand a fresh subscriber the retained state of every topic
		// the (possibly wildcard) subscription covers, in topic order.
		var topics []string
		for topic := range b.retained {
			if TopicMatches(m.Topic, topic) {
				topics = append(topics, topic)
			}
		}
		slices.Sort(topics)
		for _, topic := range topics {
			b.ep.Send(from, deliverMsg{Topic: topic, Payload: b.retained[topic]})
		}
	case publishMsg:
		if m.ID != 0 {
			b.ep.SendEnvelope(from, simnet.Envelope{Kind: envPubAck, A: m.ID, Bytes: 12})
		}
		b.fanOut(from, m.Topic, m.Payload)
	}
}

// fanOut delivers a publication to every subscriber whose pattern
// matches, except the publisher itself: network subscribers first, by
// pattern and then by id, then local handlers by pattern.
func (b *Broker) fanOut(from simnet.NodeID, topic string, payload any) {
	var sentAt time.Duration
	if b.bus.Active() {
		sentAt = b.bus.Now()
		b.bus.Emit("pubsub.publish", string(b.ep.ID()), 0, 0, "topic %s from %s", topic, from)
	}
	var buf [4]*subscription
	rows := b.covering(buf[:0], topic)
	for _, s := range rows {
		for _, id := range s.ids {
			if id == from {
				continue
			}
			b.ep.Send(id, deliverMsg{Topic: topic, Payload: payload, SentAt: sentAt})
		}
	}
	for _, s := range rows {
		for _, h := range s.local {
			h(topic, payload)
		}
	}
}

// MessageHandler consumes deliveries on a subscribed topic.
type MessageHandler func(topic string, payload any)

// TopicMatches reports whether a subscription pattern covers a topic,
// with MQTT-style wildcards: "+" matches exactly one "/"-separated
// level, a trailing "#" matches any remainder (including none).
//
//	zone/+/temp  matches  zone/3/temp
//	zone/#       matches  zone/3/temp and zone
func TopicMatches(pattern, topic string) bool {
	// Walks both strings level by level in place. Brokers run this for
	// every (publish, wildcard subscription) pair, so it must not
	// allocate — which rules out strings.Split.
	topicDone := false
	for {
		p, pRest := pattern, ""
		pMore := false
		if i := strings.IndexByte(pattern, '/'); i >= 0 {
			p, pRest, pMore = pattern[:i], pattern[i+1:], true
		}
		if p == "#" {
			return true // matches the remainder, including none
		}
		if topicDone {
			return false // pattern has levels the topic lacks
		}
		t := topic
		tMore := false
		if i := strings.IndexByte(topic, '/'); i >= 0 {
			t, topic, tMore = topic[:i], topic[i+1:], true
		}
		if p != "+" && p != t {
			return false
		}
		if !pMore {
			return !tMore // both must end at the same level
		}
		pattern = pRest
		if !tMore {
			topicDone = true
		}
	}
}

// Client connects a node to a broker.
type Client struct {
	ep     simnet.Port
	broker simnet.NodeID
	// RetryInterval and MaxRetries govern QoS-1 republishing.
	retryInterval time.Duration
	maxRetries    int

	// handlers is sorted by pattern, the order of dispatch and of
	// resubscription. Adding a pattern replaces the slice, so a handler
	// may subscribe from inside a delivery.
	handlers []clientSub
	nextID   uint64
	pending  map[uint64]*simnet.Timer

	bus *obs.Bus
}

// clientSub is one subscription of a client.
type clientSub struct {
	pattern string
	h       MessageHandler
}

// ClientConfig tunes a client. Zero fields take defaults.
type ClientConfig struct {
	RetryInterval time.Duration
	MaxRetries    int
}

// NewClient creates a client of the broker at brokerID.
func NewClient(ep simnet.Port, brokerID simnet.NodeID, cfg ClientConfig) *Client {
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = 500 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 5
	}
	c := &Client{
		ep:            ep,
		broker:        brokerID,
		retryInterval: cfg.RetryInterval,
		maxRetries:    cfg.MaxRetries,
		pending:       make(map[uint64]*simnet.Timer),
	}
	ep.OnMessage(c.handle)
	ep.OnEnvelope(func(_ simnet.NodeID, e *simnet.Envelope) {
		if e.Kind == envPubAck {
			c.onPubAck(e.A)
		}
	})
	ep.OnUp(c.resubscribe)
	return c
}

// SetBus attaches an observability bus. Deliveries stamped by a
// bus-attached broker are published as "pubsub.deliver" spans covering
// broker fan-out to client dispatch.
func (c *Client) SetBus(bus *obs.Bus) { c.bus = bus }

// Subscribe registers a handler and informs the broker. Re-subscription
// after the client's own crash is automatic; after a *broker* crash the
// subscription is gone until the client subscribes again (ML2's
// weakness, surfaced in the experiments).
func (c *Client) Subscribe(topic string, h MessageHandler) {
	if i, found := c.handlerIndex(topic); found {
		c.handlers[i].h = h
	} else {
		c.handlers = slices.Insert(slices.Clone(c.handlers), i, clientSub{topic, h})
	}
	c.ep.Send(c.broker, subscribeMsg{Topic: topic})
}

func (c *Client) handlerIndex(pattern string) (int, bool) {
	return slices.BinarySearchFunc(c.handlers, pattern, func(s clientSub, p string) int {
		return strings.Compare(s.pattern, p)
	})
}

// Publish sends payload to the topic. With AtLeastOnce, the client
// retries until acknowledged or MaxRetries is exhausted.
func (c *Client) Publish(topic string, payload any, qos QoS) {
	if qos != AtLeastOnce {
		c.ep.Send(c.broker, publishMsg{Topic: topic, Payload: payload})
		return
	}
	c.nextID++
	c.sendWithRetry(c.nextID, topic, payload, 0)
}

func (c *Client) sendWithRetry(id uint64, topic string, payload any, attempt int) {
	c.ep.Send(c.broker, publishMsg{ID: id, Topic: topic, Payload: payload})
	if attempt >= c.maxRetries {
		return
	}
	c.pending[id] = c.ep.After(c.retryInterval, func() {
		if _, still := c.pending[id]; still {
			c.sendWithRetry(id, topic, payload, attempt+1)
		}
	})
}

func (c *Client) resubscribe() {
	for _, s := range c.handlers {
		c.ep.Send(c.broker, subscribeMsg{Topic: s.pattern})
	}
}

func (c *Client) handle(_ simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(deliverMsg)
	if !ok {
		return
	}
	if m.SentAt > 0 && c.bus.Active() {
		c.bus.Publish(obs.Event{
			At: m.SentAt, Dur: c.bus.Now() - m.SentAt,
			Kind: "pubsub.deliver", Node: string(c.ep.ID()),
			Detail: "topic " + m.Topic,
		})
	}
	// Subscriptions may be wildcard patterns; dispatch to every
	// matching handler.
	for _, s := range c.handlers {
		if TopicMatches(s.pattern, m.Topic) {
			s.h(m.Topic, m.Payload)
		}
	}
}

// onPubAck settles a pending QoS-1 publish.
func (c *Client) onPubAck(id uint64) {
	if t, ok := c.pending[id]; ok {
		t.Stop()
		delete(c.pending, id)
	}
}
