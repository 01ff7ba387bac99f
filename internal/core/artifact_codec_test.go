package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// encodedSegment builds the Subjects[2] workload at the given scale and
// encodes the artifacts of the first n functions of its largest unit (all
// of them when n is 0) into one segment, as a commit writes a unit record.
func encodedSegment(tb testing.TB, scale, n int) (progFP string, data []byte) {
	tb.Helper()
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: scale, Taint: true})
	s := NewSession(BuildOptions{})
	if _, err := s.Update(gen.Units); err != nil {
		tb.Fatal(err)
	}
	var names []string
	for _, fns := range s.unitFuncs {
		if len(fns) > len(names) {
			names = fns
		}
	}
	if n > 0 {
		names = names[:n]
	}
	data, err := encodeSegment(s.progFP, names, s.artifacts)
	if err != nil {
		tb.Fatal(err)
	}
	return s.progFP, data
}

// decodePanic runs decodeSegment and reports a panic as an error; decode
// errors are the expected outcome for corrupt bytes and report nil.
func decodePanic(progFP string, data []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	decodeSegment(progFP, data)
	return nil
}

// TestDecodeSegmentMutantsNoPanic is the untrusted-bytes contract of the
// segment decoder: a unit record with a few random bytes overwritten decodes
// to an error (a store miss) or to artifacts, never to a panic.
func TestDecodeSegmentMutantsNoPanic(t *testing.T) {
	progFP, data := encodedSegment(t, 20, 0)
	if arts, err := decodeSegment(progFP, data); err != nil || len(arts) == 0 {
		t.Fatalf("pristine segment: %d artifacts, err %v", len(arts), err)
	}
	const mutants = 2000
	rng := rand.New(rand.NewSource(1))
	mut := make([]byte, len(data))
	panics := 0
	for i := 0; i < mutants; i++ {
		copy(mut, data)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		if err := decodePanic(progFP, mut); err != nil {
			if panics == 0 {
				t.Errorf("mutant %d: %v", i, err)
			}
			panics++
		}
	}
	if panics > 0 {
		t.Fatalf("%d of %d mutants panicked decodeSegment", panics, mutants)
	}
}

// FuzzDecodeSegment feeds arbitrary bytes to the segment decoder, seeded
// with a real segment of four functions: small inputs keep the fuzzer's
// minimization fast, and TestDecodeSegmentMutantsNoPanic covers a whole
// unit's record. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeSegment$' -fuzztime 10s ./internal/core
func FuzzDecodeSegment(f *testing.F) {
	progFP, data := encodedSegment(f, 20, 4)
	f.Add(data)
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeSegment(progFP, b)
	})
}
