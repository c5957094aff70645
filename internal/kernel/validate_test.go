package kernel_test

import (
	"errors"
	"testing"

	"livelock/internal/explore"
	"livelock/internal/kernel"
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
