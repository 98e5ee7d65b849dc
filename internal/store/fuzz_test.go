package store_test

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/store"
	"repro/internal/wcet"
)

// FuzzStoreDecode: arbitrary bytes fed to every artifact decoder yield a
// value or an error, never both and never a panic, and a decoded value
// re-encodes to a payload that decodes again. The seed corpus in
// testdata/fuzz/FuzzStoreDecode holds ADPCM's encoded profile,
// witness-bearing analysis, simulation result and allocation, each whole,
// cut in half and one byte short.
func FuzzStoreDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		decodes(t, "profile", b, store.DecodeProfile, store.EncodeProfile)
		decodes(t, "wcet", b, store.DecodeWCET, store.EncodeWCET)
		decodes(t, "sim", b, store.DecodeSim, store.EncodeSim)
		decodes(t, "alloc", b, store.DecodeAlloc, store.EncodeAlloc)
	})
}

// decodes checks one decoder on one payload.
func decodes[V any](t *testing.T, what string, b []byte, decode func([]byte) (*V, error), encode func(*V) []byte) {
	t.Helper()
	v, err := decode(b)
	if (v == nil) == (err == nil) {
		t.Fatalf("%s: decoded %v with error %v", what, v != nil, err)
	}
	if err != nil {
		return
	}
	if _, err := decode(encode(v)); err != nil {
		t.Fatalf("%s: re-encoded value does not decode: %v", what, err)
	}
}

// fixedWitnessWCET is the hex encoding of fixedWitnessResult as the codec
// wrote it when access counts were a width-keyed map: nonzero widths in
// ascending order as (u8 width, u64 count) pairs. Stored analyses keep
// their payloads only while the vector codec writes the same bytes.
const fixedWitnessWCET = "d2040000000000000200000001000000663800000000000000040000006d61696ed204000000000000000000000000000000000000000000000000000000000000000000000000000001020000000100000066030000000000000004000000" +
	"6d61696e01000000000000000200000001000000660300000003000000000000001e000000000000000300000000000000040000006d61696e0200000001000000000000000100000000000000020000000100000066030000000000000000000000010000000000000000" +
	"030000000000000001000000000000000100000000000000011b0000000000000001000000000000000200000000000000000300000000000000040000006d61696e010000000000000000000000010000000000000000010000000000000004000000030000006275660000" +
	"00000000000003000000011e000000000000000207000000000000000405000000000000000100000066630000000000000001000000040600000000000000040000006d61696e0c000000000000000100000004020000000000000003000000746162000000000000000001" +
	"000000021e00000000000000"

func fixedWitnessResult() *wcet.Result {
	return &wcet.Result{
		WCET:        1234,
		PerFunction: map[string]uint64{"main": 1234, "f": 56},
		Witness: &wcet.Witness{
			FuncRuns:    map[string]uint64{"main": 1, "f": 3},
			BlockCounts: map[string][]uint64{"main": {1, 1}, "f": {3, 30, 3}},
			EdgeCounts: map[string][]wcet.EdgeCount{
				"main": {{From: 0, To: 1, Count: 1}},
				"f":    {{From: 0, To: 1, Count: 3}, {From: 1, To: 1, Taken: true, Count: 27}, {From: 1, To: 2, Count: 3}},
			},
			ObjectAccesses: map[string]*mem.Accesses{
				"main": {Fetches: 12, Data: [3]uint64{2: 2}},
				"f":    {Fetches: 99, Data: [3]uint64{2: 6}},
				"buf":  {Data: [3]uint64{30, 7, 5}},
				"tab":  {Data: [3]uint64{1: 30}},
			},
		},
	}
}

// TestWitnessEncodingStable: the witness codec writes the map-era bytes
// for a fixed witness and decodes them back to it, and a width byte
// outside {1, 2, 4} decodes as an error rather than indexing past the
// access vector.
func TestWitnessEncodingStable(t *testing.T) {
	r := fixedWitnessResult()
	enc := store.EncodeWCET(r)
	if got := hex.EncodeToString(enc); got != fixedWitnessWCET {
		t.Fatalf("witness encoding changed:\n got %s\nwant %s", got, fixedWitnessWCET)
	}
	back, err := store.DecodeWCET(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Errorf("decoded %+v, want %+v", back.Witness, r.Witness)
	}
	// The payload ends with "tab"'s only (width, count) pair.
	at := len(enc) - 9
	if enc[at] != 2 {
		t.Fatalf("byte %d is %d, want tab's width 2", at, enc[at])
	}
	for _, width := range []byte{0, 3, 8, 16, 255} {
		bad := append([]byte(nil), enc...)
		bad[at] = width
		if _, err := store.DecodeWCET(bad); err == nil {
			t.Errorf("witness with access width %d decoded", width)
		}
	}
}
