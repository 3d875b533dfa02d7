package serve

import (
	"sort"
	"sync"
	"time"

	"repro/internal/gossip"
	"repro/internal/obs"
)

// maxClosedIncidents bounds the retained history of closed incidents.
const maxClosedIncidents = 128

// IncidentView is one peer-down incident as served by /v1/incidents.
type IncidentView struct {
	Peer       string `json:"peer"`
	DownAtMs   int64  `json:"down_at_ms"`
	UpAtMs     int64  `json:"up_at_ms,omitempty"`
	RecoveryMs int64  `json:"recovery_ms,omitempty"`
	Open       bool   `json:"open"`
}

// IncidentsView is the /v1/incidents response.
type IncidentsView struct {
	Open      int            `json:"open"`
	Total     int            `json:"total"`
	Incidents []IncidentView `json:"incidents"`
}

// incidentLog derives incident records from membership transitions: a
// peer turning dead opens an incident, its next alive transition
// closes it. It is the node's one incident tracker: /v1/incidents reads
// snapshot and the riot_incident* metrics are updated from the same
// transitions. observe runs on the event loop, snapshot on HTTP handler
// goroutines, so the log carries its own lock.
type incidentLog struct {
	mu     sync.Mutex
	now    func() time.Duration
	open   map[string]time.Duration
	closed []IncidentView
	total  int

	totalC   *obs.Counter
	openG    *obs.Gauge
	recovery *obs.Histogram
}

func newIncidentLog(now func() time.Duration, reg *obs.Registry) *incidentLog {
	return &incidentLog{
		now:    now,
		open:   make(map[string]time.Duration),
		totalC: reg.Counter("riot_incidents_total", "peer-down incidents observed by membership"),
		openG:  reg.Gauge("riot_incidents_open", "peer-down incidents currently open"),
		recovery: reg.Histogram("riot_incident_recovery_seconds",
			"peer dead-to-alive recovery time", []float64{1, 5, 15, 60, 300}),
	}
}

func (l *incidentLog) observe(m gossip.Member) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch m.Status {
	case gossip.StatusDead:
		if _, ok := l.open[string(m.ID)]; !ok {
			l.open[string(m.ID)] = l.now()
			l.total++
			l.totalC.Inc()
		}
	case gossip.StatusAlive:
		if downAt, ok := l.open[string(m.ID)]; ok {
			delete(l.open, string(m.ID))
			up := l.now()
			l.recovery.Observe((up - downAt).Seconds())
			l.closed = append(l.closed, IncidentView{
				Peer:       string(m.ID),
				DownAtMs:   downAt.Milliseconds(),
				UpAtMs:     up.Milliseconds(),
				RecoveryMs: (up - downAt).Milliseconds(),
			})
			if len(l.closed) > maxClosedIncidents {
				l.closed = l.closed[len(l.closed)-maxClosedIncidents:]
			}
		}
	}
	l.openG.Set(float64(len(l.open)))
}

// snapshot renders open incidents first (most recent down last), then
// the retained closed history in close order.
func (l *incidentLog) snapshot() IncidentsView {
	l.mu.Lock()
	defer l.mu.Unlock()
	view := IncidentsView{Open: len(l.open), Total: l.total}
	opens := make([]IncidentView, 0, len(l.open))
	for peer, downAt := range l.open {
		opens = append(opens, IncidentView{Peer: peer, DownAtMs: downAt.Milliseconds(), Open: true})
	}
	sort.Slice(opens, func(i, j int) bool { return opens[i].DownAtMs < opens[j].DownAtMs })
	view.Incidents = append(opens, append([]IncidentView(nil), l.closed...)...)
	if view.Incidents == nil {
		view.Incidents = []IncidentView{}
	}
	return view
}
