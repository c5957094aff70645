package kernel_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"livelock/internal/explore"
	"livelock/internal/kernel"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  kernel.Config
		want error
	}{
		{"default", kernel.DefaultConfig(), nil},
		{"zero", kernel.Config{}, nil},
		{"polled-smp", kernel.Config{Mode: kernel.ModePolled, CPUs: 4, IRQCPUs: 1}, nil},
		{"user-uniprocessor", kernel.Config{UserProcess: true, CPUs: 1}, nil},
		{"mode-negative", kernel.Config{Mode: -1}, kernel.ErrUnknownMode},
		{"mode-past-polled", kernel.Config{Mode: kernel.ModePolled + 1}, kernel.ErrUnknownMode},
		{"user-smp", kernel.Config{Mode: kernel.ModePolled, UserProcess: true, CPUs: 2}, kernel.ErrUserProcessSMP},
		// Values with a meaning today, or that the configuration never
		// uses, are accepted.
		{"quota-negative", kernel.Config{Mode: kernel.ModePolled, Quota: -1}, nil},
		{"feedback-timeout-negative", kernel.Config{Mode: kernel.ModePolled, Screend: true, Feedback: true, FeedbackTimeout: -1}, nil},
		{"threshold-negative", kernel.Config{Mode: kernel.ModePolled, CycleLimitThreshold: -0.5, CycleLimitPeriod: -1}, nil},
		{"threshold-above-one", kernel.Config{Mode: kernel.ModePolled, CycleLimitThreshold: 2, CycleLimitPeriod: -1}, nil},
		{"cycle-period-unmodified", kernel.Config{CycleLimitThreshold: 0.5, CycleLimitPeriod: -1}, nil},
		{"ipintrq-polled", kernel.Config{Mode: kernel.ModePolled, IPIntrQLimit: -1}, nil},
		{"screendq-without-screend", kernel.Config{ScreendQLimit: -1}, nil},
		{"watermarks-without-feedback", kernel.Config{Mode: kernel.ModePolled, Screend: true, ScreendQHigh: 8, ScreendQLow: 24}, nil},
		{"watermarks-unmodified", kernel.Config{Screend: true, Feedback: true, ScreendQHigh: 8, ScreendQLow: 24}, nil},
		{"high-at-limit", kernel.Config{Mode: kernel.ModePolled, Screend: true, Feedback: true, ScreendQHigh: 32}, nil},
		// The fast-path saving may use up the whole forwarding cost, and
		// the compat kernel's includes its penalty.
		{"fastpath-polled-whole-cost", fastPath(kernel.ModePolled, 0), nil},
		{"fastpath-unmodified-whole-cost", fastPath(kernel.ModeUnmodified, 0), nil},
		{"fastpath-compat-within-penalty", fastPath(kernel.ModePolledCompat, kernel.DefaultCosts().CompatPenalty), nil},
		{"fastpath-off", kernel.Config{Costs: kernel.Costs{FastPathSavings: sim.Second}}, nil},
		{"fastpath-modern", kernel.Config{Mode: kernel.ModePolled, FastPath: true, Costs: kernel.ModernCosts()}, nil},
	}
	for _, sc := range explore.Scenarios() {
		if err := sc.Config.Validate(); err != nil {
			t.Errorf("explore scenario %s: Validate() = %v, want nil", sc.Name, err)
		}
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == nil && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want != nil || err != nil {
			continue
		}
		// An accepted config builds and runs with its audits passing.
		eng := sim.NewEngine()
		r := kernel.NewRouter(eng, tc.cfg)
		r.AttachGenerator(0, workload.ConstantRate{Rate: 8000}, 0).Start()
		eng.Run(sim.Time(20 * sim.Millisecond))
		if err := r.Audit(r.Offered()); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestConfigValidateRejectsUnbuildable: each config names a value
// NewRouter cannot build with — a constructor or the first event would
// panic on it — so Validate must refuse it with ErrInvalidConfig naming
// the field.
func TestConfigValidateRejectsUnbuildable(t *testing.T) {
	fb := func(c kernel.Config) kernel.Config {
		c.Mode, c.Screend, c.Feedback = kernel.ModePolled, true, true
		return c
	}
	nicRing := func(rx, tx int) kernel.Config {
		c := kernel.Config{}
		c.NIC.RxRing, c.NIC.TxRing = rx, tx
		return c
	}
	cases := []struct {
		field string
		cfg   kernel.Config
	}{
		{"IPIntrQLimit", kernel.Config{IPIntrQLimit: -1}},
		{"IPIntrQLimit", kernel.Config{Mode: kernel.ModePolledCompat, IPIntrQLimit: -1}},
		{"OutQueueLimit", kernel.Config{Mode: kernel.ModePolled, OutQueueLimit: -1}},
		{"OutQueueLimit", kernel.Config{OutQueueLimit: -1}},
		{"ScreendQLimit", kernel.Config{Screend: true, ScreendQLimit: -1}},
		{"NIC.RxRing", nicRing(-1, 0)},
		{"NIC.TxRing", nicRing(0, -1)},
		{"PoolBuffers", kernel.Config{PoolBuffers: -1}},
		{"LinkBitRate", kernel.Config{LinkBitRate: -1}},
		{"InputNICs", kernel.Config{InputNICs: -1}},
		{"ScreendQHigh", fb(kernel.Config{ScreendQHigh: 8, ScreendQLow: 24})},
		{"ScreendQHigh", fb(kernel.Config{ScreendQHigh: 8, ScreendQLow: 8})},
		{"ScreendQHigh", fb(kernel.Config{ScreendQHigh: 40})},
		{"ScreendQHigh", fb(kernel.Config{ScreendQLimit: 16})}, // default high 24 > limit
		{"ScreendQLow", fb(kernel.Config{ScreendQLow: -1})},
		{"CycleLimitPeriod", kernel.Config{Mode: kernel.ModePolled, CycleLimitThreshold: 0.5, CycleLimitPeriod: -1}},
		{"Costs.IPForwardPerPkt", kernel.Config{Costs: kernel.Costs{IPForwardPerPkt: -1}}},
		{"Costs.RxDevicePerPkt", kernel.Config{Costs: kernel.Costs{RxDevicePerPkt: -1}}},
		{"Costs.PolledRxPerPkt", kernel.Config{Mode: kernel.ModePolled, Quota: 5, Costs: kernel.Costs{PolledRxPerPkt: -1}}},
		{"Costs.ScreendRecvPerPkt", kernel.Config{Screend: true, Costs: kernel.Costs{ScreendRecvPerPkt: -1}}},
		{"Costs.ClockTickCost", kernel.Config{Costs: kernel.Costs{ClockTickCost: -1}}},
		{"Costs.LockOp", kernel.Config{CPUs: 2, Costs: kernel.Costs{LockOp: -1}}},
		{"Costs.FastPathSavings", fastPath(kernel.ModePolled, sim.Microsecond)},
		{"Costs.FastPathSavings", fastPath(kernel.ModeUnmodified, sim.Microsecond)},
		{"Costs.FastPathSavings", fastPath(kernel.ModePolledCompat, kernel.DefaultCosts().CompatPenalty+sim.Microsecond)},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if !errors.Is(err, kernel.ErrInvalidConfig) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want ErrInvalidConfig naming %s", tc.field, err, tc.field)
		}
	}
}

// fastPath is a FastPath config of mode on the default costs whose
// fast-path saving exceeds the mode's plain forwarding cost by over.
func fastPath(mode kernel.Mode, over sim.Duration) kernel.Config {
	c := kernel.Config{Mode: mode, Quota: 5, FastPath: true, Costs: kernel.DefaultCosts()}
	c.Costs.FastPathSavings = c.Costs.IPForwardPerPkt + over
	if mode == kernel.ModePolled {
		c.Costs.FastPathSavings = c.Costs.PolledRxPerPkt + over
	}
	return c
}

// TestConfigValidateRejectsNegativeCosts: every Costs field, used by
// the configuration or not, must be non-negative.
func TestConfigValidateRejectsNegativeCosts(t *testing.T) {
	costs := reflect.TypeOf(kernel.Costs{})
	for i := 0; i < costs.NumField(); i++ {
		name := costs.Field(i).Name
		cfg := kernel.Config{Costs: kernel.DefaultCosts()}
		reflect.ValueOf(&cfg.Costs).Elem().Field(i).SetInt(-1)
		err := cfg.Validate()
		if !errors.Is(err, kernel.ErrInvalidConfig) || !strings.Contains(err.Error(), "Costs."+name) {
			t.Errorf("Costs.%s = -1: Validate() = %v, want ErrInvalidConfig naming it", name, err)
		}
	}
}

// TestNewRouterPanicsWithValidateError pins that NewRouter's refusal is
// Validate's: the check lives in one place.
func TestNewRouterPanicsWithValidateError(t *testing.T) {
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, kernel.ErrUserProcessSMP) {
			t.Fatalf("NewRouter panicked with %v, want ErrUserProcessSMP", err)
		}
	}()
	kernel.NewRouter(nil, kernel.Config{UserProcess: true, CPUs: 2})
}

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []kernel.Mode{kernel.ModeUnmodified, kernel.ModePolledCompat, kernel.ModePolled} {
		got, err := kernel.ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := kernel.ParseMode("compat"); err != nil || got != kernel.ModePolledCompat {
		t.Errorf("ParseMode(\"compat\") = %v, %v; want %v", got, err, kernel.ModePolledCompat)
	}
	for _, s := range []string{"", "bogus", "Polled", "mode7"} {
		if _, err := kernel.ParseMode(s); !errors.Is(err, kernel.ErrUnknownMode) {
			t.Errorf("ParseMode(%q) error = %v, want ErrUnknownMode", s, err)
		}
	}
}
