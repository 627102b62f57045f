// Package promexp is a dependency-free Prometheus text-format
// exporter for the streaming telemetry layer: a Collector subscribes
// to a telemetry Hub, folds the sample stream into per-(host, domain)
// watts gauges and cumulative joules counters, and serves them — plus
// stream health counters and a re-export of the whole obs metrics
// registry — in the text exposition format (version 0.0.4) at
// /metrics on the obs debug mux.
package promexp

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"

	"vasppower/internal/hw/node"
	"vasppower/internal/obs"
	"vasppower/internal/telemetry"
)

// namespace prefixes every exported metric family.
const namespace = "vasppower"

// Collector drains a telemetry subscription in a background goroutine
// and serves the folded state over HTTP. The collector's subscription
// is bounded like any other: if scrapes stall and the simulation
// outruns the ring, old samples are shed (watts gauges skip ahead;
// joules counters integrate only the samples that survive, and the
// shed windows are visible in the dropped-samples counter).
type Collector struct {
	hub *telemetry.Hub
	sub *telemetry.Subscription
	reg *obs.Registry

	mu     sync.Mutex
	series map[seriesKey]*seriesState

	done chan struct{}
}

type seriesKey struct {
	host   string
	domain node.Domain
}

type seriesState struct {
	watts  float64 // most recent sample
	joules float64 // ∫ watts dt over received samples
	lastT  float64 // stream time of the last folded sample
}

// NewCollector subscribes to hub (all domains, ring of ringCap
// samples) and starts the drain goroutine. reg, when non-nil, is
// re-exported on every scrape.
func NewCollector(hub *telemetry.Hub, reg *obs.Registry, ringCap int) (*Collector, error) {
	sub, err := hub.Subscribe("", ringCap)
	if err != nil {
		return nil, err
	}
	c := &Collector{
		hub:    hub,
		sub:    sub,
		reg:    reg,
		series: make(map[seriesKey]*seriesState),
		done:   make(chan struct{}),
	}
	go c.run()
	return c, nil
}

func (c *Collector) run() {
	defer close(c.done)
	for {
		smp, ok := c.sub.Next()
		if !ok {
			return
		}
		c.mu.Lock()
		k := seriesKey{smp.Host, smp.Domain}
		st := c.series[k]
		if st == nil {
			st = &seriesState{}
			c.series[k] = st
		}
		// Per-host stream clocks are monotone (they start at 0 and
		// resume across runs), so T - lastT is the sample's
		// window and the rectangle rule integrates the trace exactly.
		if smp.T > st.lastT {
			st.joules += smp.Watts * (smp.T - st.lastT)
			st.lastT = smp.T
		}
		st.watts = smp.Watts
		c.mu.Unlock()
	}
}

// Close stops the drain goroutine and detaches from the hub.
func (c *Collector) Close() {
	c.sub.Close()
	<-c.done
}

// ServeHTTP renders the current state in Prometheus text format.
func (c *Collector) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	c.write(&b)
	io.WriteString(w, b.String())
}

func (c *Collector) write(b *strings.Builder) {
	c.mu.Lock()
	keys := make([]seriesKey, 0, len(c.series))
	for k := range c.series {
		keys = append(keys, k)
	}
	states := make(map[seriesKey]seriesState, len(c.series))
	for k, st := range c.series {
		states[k] = *st
	}
	c.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].host != keys[j].host {
			return keys[i].host < keys[j].host
		}
		return keys[i].domain < keys[j].domain
	})

	family(b, namespace+"_power_watts", "gauge",
		"Latest sampled power per host and NVML-style domain scope.")
	for _, k := range keys {
		sample(b, namespace+"_power_watts", hostDomainLabels(k), states[k].watts)
	}
	family(b, namespace+"_energy_joules_total", "counter",
		"Cumulative energy per host and domain, integrated over the sample stream.")
	for _, k := range keys {
		sample(b, namespace+"_energy_joules_total", hostDomainLabels(k), states[k].joules)
	}

	family(b, namespace+"_telemetry_subscribers", "gauge",
		"Live subscriptions on the telemetry hub.")
	sample(b, namespace+"_telemetry_subscribers", "", float64(c.hub.Subscribers()))
	family(b, namespace+"_telemetry_dropped_samples_total", "counter",
		"Samples shed by bounded subscriber rings across the hub (slow-consumer drops).")
	sample(b, namespace+"_telemetry_dropped_samples_total", "", float64(c.hub.Dropped()))
	family(b, namespace+"_scrape_dropped_samples_total", "counter",
		"Samples this exporter's own subscription shed before folding.")
	sample(b, namespace+"_scrape_dropped_samples_total", "", float64(c.sub.Dropped()))

	c.writeRegistry(b)
}

// writeRegistry re-exports the obs registry snapshot: counters gain a
// _total suffix, histograms become cumulative le-bucketed families.
func (c *Collector) writeRegistry(b *strings.Builder) {
	snap := c.reg.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fam := namespace + "_" + sanitize(n) + "_total"
		family(b, fam, "counter", "Registry counter "+n+".")
		sample(b, fam, "", float64(snap.Counters[n]))
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fam := namespace + "_" + sanitize(n)
		family(b, fam, "gauge", "Registry gauge "+n+".")
		sample(b, fam, "", float64(snap.Gauges[n]))
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		fam := namespace + "_" + sanitize(n)
		family(b, fam, "histogram", "Registry histogram "+n+".")
		cum := int64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			sample(b, fam+"_bucket", fmt.Sprintf("le=%q", formatFloat(bk.LE)), float64(cum))
		}
		sample(b, fam+"_bucket", `le="+Inf"`, float64(h.Count))
		sample(b, fam+"_sum", "", h.Sum)
		sample(b, fam+"_count", "", float64(h.Count))
	}
}

func hostDomainLabels(k seriesKey) string {
	return `host="` + escapeLabel(k.host) + `",domain="` + string(k.domain) + `"`
}

func family(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

func sample(b *strings.Builder, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(b, "%s %s\n", name, formatFloat(v))
		return
	}
	fmt.Fprintf(b, "%s{%s} %s\n", name, labels, formatFloat(v))
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// escapeLabel escapes a label value per the exposition format
// (backslash, double quote, newline).
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

// sanitize maps a registry metric name ("omni.inserts") onto the
// Prometheus name alphabet.
func sanitize(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
