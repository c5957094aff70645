package runflags

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"livelock/internal/kernel"
)

func parse(t *testing.T, args ...string) (kernel.Config, float64, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Config()
}

func TestDefaults(t *testing.T) {
	cfg, rate, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != kernel.DefaultConfig().Mode || rate != 8000 {
		t.Fatalf("defaults: mode %v at %v pps, want %v at 8000", cfg.Mode, rate, kernel.DefaultConfig().Mode)
	}
	if cfg.Fault.Enabled() {
		t.Fatalf("default fault plane enabled: %+v", cfg.Fault)
	}
}

// TestEveryFlagReachesConfig sets each bound flag to a non-default
// value and requires the returned config or rate to change, so a flag
// cannot be registered and then never copied. The base arguments open
// the stall and pause windows, without which their periods are zeroed.
func TestEveryFlagReachesConfig(t *testing.T) {
	base := []string{"-fault-stall", "5ms", "-fault-screend-pause", "5ms"}
	strs := map[string]string{"mode": "polled", "coalesce": "count", "fault-reorder-mode": "swap"}
	baseCfg, baseRate, err := parse(t, base...)
	if err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs)
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		var v string
		switch fl.Value.(flag.Getter).Get().(type) {
		case bool:
			v = "true"
		case time.Duration:
			v = "7ms"
		case int, uint64, float64:
			v = "3"
		case string:
			v = strs[fl.Name]
		}
		if v == "" {
			t.Errorf("-%s: no test value for its type", fl.Name)
			return
		}
		cfg, rate, err := parse(t, append(base, "-"+fl.Name, v)...)
		if err != nil {
			t.Errorf("-%s %s: %v", fl.Name, v, err)
			return
		}
		if rate == baseRate && reflect.DeepEqual(cfg, baseCfg) {
			t.Errorf("-%s %s changed neither the config nor the rate", fl.Name, v)
		}
	})
	if n != 30 {
		t.Errorf("Bind registered %d flags, want 30", n)
	}
}
