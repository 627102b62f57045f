package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vasppower/internal/core"
	"vasppower/internal/telemetry"
	"vasppower/internal/workloads"
)

// telemetryDigest is the SHA-256 of every sample TestTelemetryStreamDigest's
// workload publishes, in stream order.
const telemetryDigest = "21bdb957692a642e4da469208a6b1eaf9ca3cd4d8d740203a891a0dc6fddbecb"

// TestTelemetryStreamDigest pins the telemetry stream byte for byte: a
// quick Fig. 1 (two nodes with the prelude) and one cap group, run
// serially through an Env with a hub, hash to a fixed digest over each
// sample's host, domain, and the bits of its time and watts.
func TestTelemetryStreamDigest(t *testing.T) {
	hub := telemetry.NewHub(nil)
	sub, err := hub.Subscribe("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvOptions{Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig1(Config{Quick: true, Workers: 1, Env: env}); err != nil {
		t.Fatal(err)
	}
	pdo2, _ := workloads.ByName("PdO2")
	if _, err := env.MeasureGroup(core.MeasureSpec{Bench: pdo2, Nodes: 2, Seed: 7}, []float64{0, 250, 150}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	n := 0
	for {
		smp, ok := sub.TryNext()
		if !ok {
			break
		}
		h.Write([]byte(smp.Host))
		h.Write([]byte{0})
		h.Write([]byte(smp.Domain))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(smp.T))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(smp.Watts))
		h.Write(buf[:])
		n++
	}
	if sub.Dropped() != 0 {
		t.Fatalf("the subscription dropped %d samples", sub.Dropped())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != telemetryDigest {
		t.Fatalf("%d samples hash to %s, want %s", n, got, telemetryDigest)
	}
}
