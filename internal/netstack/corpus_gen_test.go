package netstack

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRegenerateFuzzCorpus rewrites the seed corpora under
// testdata/fuzz/<Target>/ from the same builders the fuzz targets use
// for their f.Add seeds. The files are committed so `go test -fuzz`
// starts from checksum-valid frames — the interesting half of the input
// space is unreachable by random mutation alone. Run with
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/netstack -run RegenerateFuzzCorpus
//
// after changing a wire format or adding a regression seed.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	corpora := map[string]map[string][]byte{
		"FuzzIPv4Unmarshal": {
			"valid-header":   seedIPv4Header(),
			"truncated":      seedIPv4Header()[:IPv4HeaderLen-1],
			"wrong-version":  {0x60, 0, 0, 0},
			"fragment-first": seedFragFirstHeader(),
		},
		"FuzzUDPParse": {
			"valid-datagram": seedUDPDatagram(),
			"short":          {0, 53},
		},
		"FuzzTCPParse": {
			"syn-frame":  seedTCPFrame(),
			"cut-header": seedTCPFrame()[:EthHeaderLen+IPv4HeaderLen+3],
		},
		"FuzzICMPParse": {
			"echo-request":  seedEchoFrame(),
			"time-exceeded": seedICMPErrorFrame(),
		},
	}
	for target, entries := range corpora {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range entries {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s/%s (%d bytes)", target, name, len(data))
		}
	}
}

// seedFragFirstHeader is a first-fragment IPv4 header (MF set, offset
// zero) with payload — exercises the fragment-word decode paths.
func seedFragFirstHeader() []byte {
	h := IPv4Header{
		TotalLen: IPv4HeaderLen + 16, ID: 0x7777, Flags: 0x1 /* MF */, TTL: 64,
		Protocol: ProtoUDP,
		Src:      AddrFrom(10, 0, 0, 1), Dst: AddrFrom(10, 1, 0, 9),
	}
	b := make([]byte, IPv4HeaderLen+16)
	if _, err := h.Marshal(b); err != nil {
		panic(err)
	}
	return b
}
