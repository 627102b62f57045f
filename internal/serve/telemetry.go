package serve

import (
	"fmt"
	"sync"

	"vasppower/internal/hw/node"
	"vasppower/internal/telemetry"
)

// telemetryRings owns /v1/telemetry's per-(host, domain) hub
// subscriptions, attached lazily on first query. Each ring is
// host-filtered at the hub (telemetry.SubscribeHost), so a busy
// neighbor host can never overflow it — the property TestHostScope
// pins down in the telemetry package.
type telemetryRings struct {
	hub *telemetry.Hub
	cap int

	mu   sync.Mutex
	subs map[string]*telemetry.Subscription // "host|domain" → ring
}

func (t *telemetryRings) init(hub *telemetry.Hub, capacity int) {
	t.hub = hub
	t.cap = capacity
	t.subs = make(map[string]*telemetry.Subscription)
}

// sub returns the ring for (host, domain), creating it on first use.
// attached reports whether this call created the ring — samples
// published before attachment were never buffered, which the response
// surfaces so clients don't mistake "just attached" for "host idle".
func (t *telemetryRings) sub(host, domain string) (s *telemetry.Subscription, attached bool, err error) {
	key := host + "|" + domain
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.subs[key]; ok {
		return s, false, nil
	}
	if t.hub == nil {
		return nil, false, fmt.Errorf("serve: telemetry hub not configured")
	}
	s, err = t.hub.SubscribeHost(host, node.Domain(domain), t.cap)
	if err != nil {
		return nil, false, err
	}
	t.subs[key] = s
	return s, true, nil
}
