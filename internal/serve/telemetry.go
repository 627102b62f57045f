package serve

import (
	"net/http"
	"strings"
	"sync"

	"vasppower/internal/hw/node"
	"vasppower/internal/telemetry"
)

// maxTelemetryRings caps how many (host, domain) rings /v1/telemetry
// attaches over a server's lifetime. A ring is never freed, so the cap
// bounds the endpoint's memory: 64 rings of DefaultTelemetryRing
// samples hold about 12.6 MB.
const maxTelemetryRings = 64

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
// Only a host a measurement can publish gets a ring, and none past
// maxTelemetryRings.
func (t *telemetryRings) sub(host, domain string) (s *telemetry.Subscription, attached bool, aerr *apiError) {
	key := host + "|" + domain
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.subs[key]; ok {
		return s, false, nil
	}
	if !publishableHost(host) {
		return nil, false, badRequest("host %q is not a measurement node (nid000001 to nid%06d)", host, maxSpecNodes)
	}
	if len(t.subs) >= maxTelemetryRings {
		return nil, false, &apiError{http.StatusServiceUnavailable, "telemetry ring limit reached"}
	}
	s, err := t.hub.SubscribeHost(host, node.Domain(domain), t.cap)
	if err != nil {
		return nil, false, badRequest("%v", err)
	}
	t.subs[key] = s
	return s, true, nil
}

// publishableHost reports whether host names a node a measurement
// publishes: "nid" and six digits, an index from 1 to maxSpecNodes.
func publishableHost(host string) bool {
	digits, ok := strings.CutPrefix(host, "nid")
	if !ok || len(digits) != 6 {
		return false
	}
	i := 0
	for _, c := range []byte(digits) {
		if c < '0' || c > '9' {
			return false
		}
		i = i*10 + int(c-'0')
	}
	return i >= 1 && i <= maxSpecNodes
}
