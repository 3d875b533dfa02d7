// Package pubsub implements topic-based publish/subscribe messaging
// with a broker, at-most-once (QoS 0) and at-least-once (QoS 1)
// delivery. Brokered pub/sub is the communication archetype of the
// paper's ML1–ML3 maturity levels (§III, Table 1): a cloud- or
// gateway-hosted broker is simple and effective, but it is a central
// point of failure — precisely the dependence the Table 1/2 experiment
// quantifies against the decentralized ML4 data plane.
package pubsub

import (
	"sort"
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

type unsubscribeMsg struct {
	Topic string
}

type publishMsg struct {
	ID      uint64 // nonzero for QoS 1
	Topic   string
	Payload any
	// Retain asks the broker to keep this as the topic's last-known
	// value and hand it to future subscribers immediately (MQTT-style
	// retained message). Retained state is broker-volatile: a broker
	// restart loses it.
	Retain bool
}

type pubAckMsg struct {
	ID uint64
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
	register(unsubscribeMsg{})
	register(publishMsg{})
	register(pubAckMsg{})
	register(deliverMsg{})
}

func (m subscribeMsg) Size() int   { return 8 + len(m.Topic) }
func (m unsubscribeMsg) Size() int { return 8 + len(m.Topic) }
func (m publishMsg) Size() int     { return 16 + len(m.Topic) + payloadSize(m.Payload) }
func (m pubAckMsg) Size() int      { return 12 }
func (m deliverMsg) Size() int     { return 8 + len(m.Topic) + payloadSize(m.Payload) }

// envPubAck is the inline-envelope form of pubAckMsg (A=ID); Bytes
// mirrors the boxed Size, so byte accounting is identical.
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
	ep   simnet.Port
	ec   simnet.EnvelopeCarrier // non-nil when ep supports inline envelopes
	subs map[string]map[simnet.NodeID]struct{}
	// local are in-process subscribers: applications colocated with
	// the broker (e.g. a cloud-side controller next to a cloud
	// broker). They are part of the application deployment, so unlike
	// network subscriptions they survive broker restarts.
	local map[string][]MessageHandler
	// retained holds each topic's last retained publication.
	retained map[string]any
	// delivered counts fan-out deliveries sent, for experiments.
	delivered int

	bus *obs.Bus
}

// NewBroker installs a broker on ep.
func NewBroker(ep simnet.Port) *Broker {
	b := &Broker{
		ep:       ep,
		subs:     make(map[string]map[simnet.NodeID]struct{}),
		local:    make(map[string][]MessageHandler),
		retained: make(map[string]any),
	}
	b.ec, _ = ep.(simnet.EnvelopeCarrier)
	ep.OnMessage(b.handle)
	ep.OnUp(func() {
		// A restarted broker has lost its subscription table and its
		// retained messages.
		b.subs = make(map[string]map[simnet.NodeID]struct{})
		b.retained = make(map[string]any)
	})
	return b
}

// SetBus attaches an observability bus. Each fan-out is published as a
// "pubsub.publish" instant; deliveries are stamped so subscribing
// clients with a bus can report "pubsub.deliver" latency spans.
func (b *Broker) SetBus(bus *obs.Bus) { b.bus = bus }

// Subscribers returns the subscriber IDs for a topic, sorted.
func (b *Broker) Subscribers(topic string) []simnet.NodeID {
	var out []simnet.NodeID
	for id := range b.subs[topic] {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Delivered returns how many deliver messages the broker has sent.
func (b *Broker) Delivered() int { return b.delivered }

// SubscribeLocal registers an in-process subscriber colocated with the
// broker. Local handlers run synchronously at publish fan-out time and
// survive broker restarts (they are application wiring, not protocol
// state).
func (b *Broker) SubscribeLocal(topic string, h MessageHandler) {
	b.local[topic] = append(b.local[topic], h)
}

// Inject publishes a message on behalf of an application colocated
// with the broker (no network hop to reach the broker).
func (b *Broker) Inject(topic string, payload any) {
	b.fanOut("", topic, payload)
}

// InjectRetained is Inject with the retain flag: the payload becomes
// the topic's retained state for future subscribers.
func (b *Broker) InjectRetained(topic string, payload any) {
	b.retained[topic] = payload
	b.fanOut("", topic, payload)
}

func (b *Broker) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case subscribeMsg:
		if b.subs[m.Topic] == nil {
			b.subs[m.Topic] = make(map[simnet.NodeID]struct{})
		}
		isNew := true
		if _, dup := b.subs[m.Topic][from]; dup {
			isNew = false
		}
		b.subs[m.Topic][from] = struct{}{}
		// Hand a fresh subscriber the retained state of every topic
		// the (possibly wildcard) subscription covers.
		if isNew {
			for topic, payload := range b.retained {
				if TopicMatches(m.Topic, topic) {
					b.delivered++
					b.ep.Send(from, deliverMsg{Topic: topic, Payload: payload})
				}
			}
		}
	case unsubscribeMsg:
		delete(b.subs[m.Topic], from)
	case publishMsg:
		if m.ID != 0 {
			if b.ec != nil {
				b.ec.SendEnvelope(from, simnet.Envelope{Kind: envPubAck, A: m.ID, Bytes: 12})
			} else {
				b.ep.Send(from, pubAckMsg{ID: m.ID})
			}
		}
		if m.Retain {
			b.retained[m.Topic] = m.Payload
		}
		b.fanOut(from, m.Topic, m.Payload)
	}
}

// fanOut delivers a publication to every subscriber whose pattern
// matches, except the publisher itself.
func (b *Broker) fanOut(from simnet.NodeID, topic string, payload any) {
	var sentAt time.Duration
	if b.bus.Active() {
		sentAt = b.bus.Now()
		b.bus.Emit("pubsub.publish", string(b.ep.ID()), 0, 0, "topic %s from %s", topic, from)
	}
	for pattern, subs := range b.subs {
		if !TopicMatches(pattern, topic) {
			continue
		}
		for id := range subs {
			if id == from {
				continue
			}
			b.delivered++
			b.ep.Send(id, deliverMsg{Topic: topic, Payload: payload, SentAt: sentAt})
		}
	}
	for pattern, handlers := range b.local {
		if !TopicMatches(pattern, topic) {
			continue
		}
		for _, h := range handlers {
			b.delivered++
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
	// every (publish, subscription) pair, so it must not allocate —
	// which rules out strings.Split.
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

	handlers map[string]MessageHandler
	nextID   uint64
	pending  map[uint64]*simnet.Timer
	// published/acked counters for experiments.
	published int
	acked     int

	bus *obs.Bus
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
		handlers:      make(map[string]MessageHandler),
		pending:       make(map[uint64]*simnet.Timer),
	}
	ep.OnMessage(c.handle)
	if ec, ok := ep.(simnet.EnvelopeCarrier); ok {
		ec.OnEnvelope(func(_ simnet.NodeID, e *simnet.Envelope) {
			if e.Kind == envPubAck {
				c.onPubAck(e.A)
			}
		})
	}
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
	c.handlers[topic] = h
	c.ep.Send(c.broker, subscribeMsg{Topic: topic})
}

// Unsubscribe removes the handler and informs the broker.
func (c *Client) Unsubscribe(topic string) {
	delete(c.handlers, topic)
	c.ep.Send(c.broker, unsubscribeMsg{Topic: topic})
}

// Publish sends payload to the topic. With AtLeastOnce, the client
// retries until acknowledged or MaxRetries is exhausted.
func (c *Client) Publish(topic string, payload any, qos QoS) {
	c.publish(topic, payload, qos, false)
}

// PublishRetained is Publish with the retain flag: the broker keeps
// the payload as the topic's last-known value for future subscribers.
func (c *Client) PublishRetained(topic string, payload any, qos QoS) {
	c.publish(topic, payload, qos, true)
}

func (c *Client) publish(topic string, payload any, qos QoS, retain bool) {
	c.published++
	if qos != AtLeastOnce {
		c.ep.Send(c.broker, publishMsg{Topic: topic, Payload: payload, Retain: retain})
		return
	}
	c.nextID++
	id := c.nextID
	c.sendWithRetry(id, topic, payload, retain, 0)
}

func (c *Client) sendWithRetry(id uint64, topic string, payload any, retain bool, attempt int) {
	c.ep.Send(c.broker, publishMsg{ID: id, Topic: topic, Payload: payload, Retain: retain})
	if attempt >= c.maxRetries {
		return
	}
	c.pending[id] = c.ep.After(c.retryInterval, func() {
		if _, still := c.pending[id]; still {
			c.sendWithRetry(id, topic, payload, retain, attempt+1)
		}
	})
}

// Published returns the number of Publish calls.
func (c *Client) Published() int { return c.published }

// Acked returns the number of QoS-1 publications acknowledged.
func (c *Client) Acked() int { return c.acked }

func (c *Client) resubscribe() {
	for topic := range c.handlers {
		c.ep.Send(c.broker, subscribeMsg{Topic: topic})
	}
}

func (c *Client) handle(_ simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case deliverMsg:
		if m.SentAt > 0 && c.bus.Active() {
			c.bus.Publish(obs.Event{
				At: m.SentAt, Dur: c.bus.Now() - m.SentAt,
				Kind: "pubsub.deliver", Node: string(c.ep.ID()),
				Detail: "topic " + m.Topic,
			})
		}
		// Subscriptions may be wildcard patterns; dispatch to every
		// matching handler.
		for pattern, h := range c.handlers {
			if TopicMatches(pattern, m.Topic) {
				h(m.Topic, m.Payload)
			}
		}
	case pubAckMsg:
		c.onPubAck(m.ID)
	}
}

// onPubAck settles a pending QoS-1 publish (boxed or envelope path).
func (c *Client) onPubAck(id uint64) {
	if t, ok := c.pending[id]; ok {
		t.Stop()
		delete(c.pending, id)
		c.acked++
	}
}
