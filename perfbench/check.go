package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// The correctness checks. Each returns nil when the output is right and
// an error naming the defect otherwise; the caller counts the operation as
// failed.

// checkAboveChance requires a classifier's mean top-1 (percent) to beat
// guessing among the dataset's classes.
func checkAboveChance(name string, r *core.Result, classes int) error {
	if r == nil {
		return fmt.Errorf("%s: no result", name)
	}
	chance := 100 / float64(classes)
	if !(r.Top1.Mean > chance) {
		return fmt.Errorf("%s: top-1 %.2f%% is not above chance %.2f%%", name, r.Top1.Mean, chance)
	}
	return nil
}

// digest is the SHA-256 of a value's JSON encoding. encoding/json prints
// float64 in shortest round-trip form, so equal digests mean bit-equal
// results.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkSameDigests compares per-operation digests from two runs of the
// same inputs (e.g. the untraced run and its traced decomposition) and
// returns one error per operation that differs or is missing.
func checkSameDigests(want, got []string) []error {
	var errs []error
	for i := 0; i < max(len(want), len(got)); i++ {
		switch {
		case i >= len(got):
			errs = append(errs, fmt.Errorf("op %d: missing from the second run", i))
		case i >= len(want):
			errs = append(errs, fmt.Errorf("op %d: missing from the first run", i))
		case want[i] != got[i]:
			errs = append(errs, fmt.Errorf("op %d: result digest %.12s != %.12s", i, got[i], want[i]))
		}
	}
	return errs
}

// checkCellBytes requires a dispatched cell's result to be byte-identical
// to the same spec run in process.
func checkCellBytes(name string, dist, local core.CellResult) error {
	a, err := json.Marshal(dist)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	b, err := json.Marshal(local)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: dispatched result differs from the in-process run", name)
	}
	if len(dist.Series) == 0 {
		return fmt.Errorf("%s: empty series", name)
	}
	return nil
}

// checkLabel requires a served label to equal the offline model's label.
func checkLabel(i, got, want int) error {
	if got != want {
		return fmt.Errorf("request %d: label %d, offline model says %d", i, got, want)
	}
	return nil
}
