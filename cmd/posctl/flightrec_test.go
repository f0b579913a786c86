package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"pos/internal/health"
	"pos/internal/telemetry"
)

// TestFlightRecordsInOneSecondDoNotOverwrite: serve's dumps are named by the
// second, so two incidents in the same second (two probes tripping in one
// watchdog pass, or a trip and a SIGQUIT) must land in two files, each
// holding its own record.
func TestFlightRecordsInOneSecondDoNotOverwrite(t *testing.T) {
	dir := t.TempDir()
	rec := health.NewRecorder(4, telemetry.Default)
	at := time.Date(2021, 10, 12, 11, 20, 32, 0, time.UTC)
	var paths []string
	for _, probe := range []string{"campaign-progress", "event-drops", ""} {
		trigger := health.TriggerWatchdog
		if probe == "" {
			trigger = health.TriggerSignal
		}
		path, err := writeFlightRecord(dir, at.Add(time.Duration(len(paths))*time.Millisecond), rec.Capture(trigger, probe, "detail"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{"flightrec-20211012T112032-1.json", "flightrec-20211012T112032-2.json", "flightrec-20211012T112032.json"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("dump files = %v, want %v", names, want)
	}
	for i, probe := range []string{"campaign-progress", "event-drops", ""} {
		data, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		fr, err := health.DecodeFlightRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Probe != probe {
			t.Errorf("%s holds probe %q, want %q", filepath.Base(paths[i]), fr.Probe, probe)
		}
	}
}
