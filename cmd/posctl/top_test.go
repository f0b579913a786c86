package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"pos/internal/api"
	"pos/internal/telemetry"
)

// TestTopReadsRegisteredMetrics holds what reads the controller's metrics to
// what it registers: after a served campaign, with the runtime sampler serve
// arms, every name posctl top shows and every name a watchdog probe in
// internal/health/probe.go reads is in /api/v1/metrics. (make lint holds the
// other half: every registered name has a reader.) top's dashboard then
// shows the measurement phase's quantile row.
func TestTopReadsRegisteredMetrics(t *testing.T) {
	addr, _ := servedVposCampaign(t)
	telemetry.NewRuntimeSampler(telemetry.Default, 0).Sample()
	c := api.NewClient(addr)
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range snap.Metrics {
		registered[m.Name] = true
	}

	src, err := os.ReadFile(filepath.Join("..", "..", "internal", "health", "probe.go"))
	if err != nil {
		t.Fatal(err)
	}
	probed := regexp.MustCompile(`"(pos_[a-z0-9_]+)"`).FindAllStringSubmatch(string(src), -1)
	if len(probed) == 0 {
		t.Fatal("internal/health/probe.go reads no pos_ metric")
	}
	reads := map[string][]string{"posctl top": topGauges}
	for _, h := range topHistograms {
		reads["posctl top"] = append(reads["posctl top"], h.name)
	}
	for _, m := range probed {
		reads["probe.go"] = append(reads["probe.go"], m[1])
	}
	for reader, names := range reads {
		for _, name := range names {
			if !registered[name] {
				t.Errorf("%s reads %s, which /api/v1/metrics does not serve", reader, name)
			}
		}
	}

	out, err := captureStdout(t, func() error {
		render(c, &topState{stream: "connected"}, addr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`pos_runner_phase_seconds\{phase=measurement\} +count [1-9]`).MatchString(out) {
		t.Errorf("posctl top shows no measurement phase row:\n%s", out)
	}
}
