// Package wiretest is what the decoder tests of the formats built on
// internal/wire share: reading and writing the checked-in seed corpora, which
// double as the formats' golden bytes, and the truncation sweep every decoder
// must survive.
package wiretest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// ReadSeed returns the bytes inside a checked-in corpus file of one []byte
// value, in the format `go test -fuzz` reads and writes.
func ReadSeed(t testing.TB, path string) []byte {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing seed corpus %s: %v", path, err)
	}
	var quoted string
	if _, err := fmt.Sscanf(string(body), "go test fuzz v1\n[]byte(%q)\n", &quoted); err != nil {
		t.Fatalf("seed corpus %s not in go fuzz v1 format: %v", path, err)
	}
	return []byte(quoted)
}

// WriteSeed writes data as the corpus file ReadSeed reads.
func WriteSeed(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Sweep holds a decoder to the contract of every format here, over valid
// encodings (seeds, by name): each decodes whole; every strict prefix of each
// fails with an error typed accepts — a truncated input never half-parses; and
// a seed with one byte appended fails typed where the decoder owns its whole
// buffer (ownsBuffer), else decodes and hands the byte back as the remainder.
// decode returns what it left unconsumed. A panic anywhere fails the test.
func Sweep(t *testing.T, seeds map[string][]byte, ownsBuffer bool, decode func([]byte) (rest []byte, err error), typed func(error) bool) {
	t.Helper()
	for name, seed := range seeds {
		if rest, err := decode(seed); err != nil || len(rest) != 0 {
			t.Fatalf("%s: intact seed: %d bytes left, error %v", name, len(rest), err)
		}
		for cut := 0; cut < len(seed); cut++ {
			if _, err := decode(seed[:cut:cut]); !typed(err) {
				t.Fatalf("%s truncated to %d/%d bytes: error %v (%T), want the decoder's typed error", name, cut, len(seed), err, err)
			}
		}
		longer := append(append([]byte(nil), seed...), 0xA5)
		switch rest, err := decode(longer); {
		case ownsBuffer && !typed(err):
			t.Fatalf("%s with a trailing byte: error %v (%T), want the decoder's typed error", name, err, err)
		case !ownsBuffer && (err != nil || len(rest) != 1 || rest[0] != 0xA5):
			t.Fatalf("%s with a trailing byte: remainder %v, error %v; want the byte back", name, rest, err)
		}
	}
}
