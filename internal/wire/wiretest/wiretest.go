// Package wiretest is what the decoder tests of the formats built on
// internal/wire share: the corpus driver over the checked-in seed corpora,
// which double as the formats' golden bytes, and the truncation sweep every
// decoder must survive.
package wiretest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// Corpus is the checked-in seed corpus of one fuzz target — testdata/fuzz/
// <target>/seed-<name>, one valid encoding per name — and the golden record
// of its format. Env names the variable that, set to 1, rewrites it from the
// encoders.
type Corpus struct {
	Target string
	Env    string
}

func (c Corpus) path(name string) string {
	return filepath.Join("testdata", "fuzz", c.Target, "seed-"+name)
}

// Read returns the bytes of a checked-in seed.
func (c Corpus) Read(t testing.TB, name string) []byte {
	t.Helper()
	return ReadSeed(t, c.path(name))
}

// Seed adds the frames to the fuzz target's corpus in name order, each whole,
// and — when longer than 8 bytes — its first half and a copy with one bit
// flipped a third of the way in, so the fuzzer starts from near-misses too.
func (c Corpus) Seed(f *testing.F, frames map[string][]byte) {
	names := make([]string, 0, len(frames))
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		frame := frames[name]
		f.Add(frame)
		if len(frame) > 8 {
			f.Add(append([]byte(nil), frame[:len(frame)/2]...))
			flip := append([]byte(nil), frame...)
			flip[len(flip)/3] ^= 0x40
			f.Add(flip)
		}
	}
}

// Check is the corpus's golden test. With Env set to 1 it writes every frame
// as its seed and checks nothing. Otherwise every frame — its encoder's
// output — must equal its checked-in seed byte for byte, and decode must
// accept the seed: a difference means the layout moved, which is a version
// bump and a rewrite, never a silent change.
func (c Corpus) Check(t *testing.T, frames map[string][]byte, decode func([]byte) error) {
	t.Helper()
	if os.Getenv(c.Env) == "1" {
		for name, frame := range frames {
			WriteSeed(t, c.path(name), frame)
		}
		return
	}
	for name, frame := range frames {
		seed := c.Read(t, name)
		if !bytes.Equal(seed, frame) {
			t.Fatalf("%s: the encoder writes %d bytes that differ from the %d checked in: the layout moved", name, len(frame), len(seed))
		}
		if err := decode(seed); err != nil {
			t.Fatalf("seed corpus %s no longer decodes: %v", name, err)
		}
	}
}

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
