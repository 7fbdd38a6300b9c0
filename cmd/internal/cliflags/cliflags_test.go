package cliflags

import (
	"flag"
	"io"
	"reflect"
	"testing"

	optique "repro"
	"repro/internal/cluster"
)

// TestBindFillsEachSettingsHome: every shared flag lands in the one
// config field that owns its setting, and the defaults are the
// documented ones (recovery off, flight recorder 256).
func TestBindFillsEachSettingsHome(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg := Bind(fs)
	if want := (optique.Config{FlightRecorder: 256}); !reflect.DeepEqual(*cfg, want) {
		t.Errorf("defaults = %+v, want %+v", *cfg, want)
	}
	if err := fs.Parse([]string{
		"-checkpoint-every", "32", "-mem-budget", "4096", "-tenant-quota", "3",
		"-flight-recorder", "0",
		"-transport", "tcp", "-listen", "127.0.0.1:0",
	}); err != nil {
		t.Fatal(err)
	}
	want := optique.Config{
		CheckpointEvery: 32,
		TenantQuota:     cluster.TenantQuota{MaxQueries: 3},
		Engine:          optique.EngineOptions{MemBudget: 4096},
		Transport:       cluster.TransportTCP,
		Listen:          "127.0.0.1:0",
	}
	if !reflect.DeepEqual(*cfg, want) {
		t.Errorf("parsed = %+v, want %+v", *cfg, want)
	}
	bad := flag.NewFlagSet("t", flag.ContinueOnError)
	bad.SetOutput(io.Discard)
	Bind(bad)
	if err := bad.Parse([]string{"-transport", "udp"}); err == nil {
		t.Error("-transport udp accepted")
	}
}
