package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datagen"
)

// TestOutWithoutFrameSaysSo runs the built command on a column file with
// -out and no -test. A column file fits out of core, so there is no training
// frame to transform: the command must say so on stdout and write no file,
// not exit 0 in silence — as it must for every other out-of-core fit
// (-chunk-rows here).
func TestOutWithoutFrameSaysSo(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "safe")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ds, err := datagen.Generate(datagen.Spec{Name: "out-note", Train: 600, Test: 16, Dim: 6, Interactions: 2, SignalScale: 2.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	col, csv := filepath.Join(dir, "train.col"), filepath.Join(dir, "train.csv")
	if err := colstore.WriteFrame(col, ds.Train, colstore.WriterOptions{GroupRows: 200}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Train.WriteCSVFile(csv); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-train", col},
		{"-train", csv, "-chunk-rows", "200"},
	} {
		out := filepath.Join(dir, "out.csv")
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(args, "-label", "label", "-out", out)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("safe %v: %v\n%s", args, err, stderr.String())
		}
		if !strings.Contains(stdout.String(), "note: out-of-core fit does not keep the training data in memory") {
			t.Errorf("safe %v -out: no note on stdout:\n%s", args, stdout.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("safe %v -out: output file exists (stat error %v)", args, err)
		}
	}
}
