package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/benchprog"
	"repro/internal/core"
)

// referenceJSON holds every output the workloads check, recorded with
// -record from a build whose outputs match internal/core/testdata/golden.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// paperRow is one paper_cold measurement: benchmark × capacity × branch.
type paperRow struct {
	SimCycles   uint64  `json:"sim_cycles"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	WCET        uint64  `json:"wcet"`
	SPMUsed     uint32  `json:"spm_used"`
	EnergyNJ    float64 `json:"energy_nj"`
}

// frontPoint is one point of an energy/WCET Pareto front.
type frontPoint struct {
	Kind     string  `json:"kind"`
	WCET     uint64  `json:"wcet"`
	EnergyNJ float64 `json:"energy_nj"`
	Used     uint32  `json:"used"`
}

// reference is the expected output of every op. Keys are
// "<bench>/<branch>/<capacity>" (paper_cold), "<bench>/<capacity>"
// (fronts), "<bench>/<capacity>/<assoc>" (cache bounds) and
// "<bench>/<branch>" (sweep response digests).
type reference struct {
	Paper       map[string]paperRow     `json:"paper_cold"`
	Fronts      map[string][]frontPoint `json:"pareto_fronts"`
	CacheBounds map[string]uint64       `json:"cache_bounds"`
	Digests     map[string]string       `json:"response_digests"`

	// recording makes every check store its value instead of comparing;
	// a key recorded twice must still agree with itself.
	recording bool
}

func (r *reference) paper(bench, branch string, size uint32, got paperRow) error {
	return check(r, r.Paper, fmt.Sprintf("%s/%s/%d", bench, branch, size), got)
}

func (r *reference) fronts(fronts []core.ParetoFrontAt) error {
	for _, f := range fronts {
		pts := make([]frontPoint, len(f.Points))
		for i, p := range f.Points {
			pts[i] = frontPoint{Kind: p.Kind, WCET: p.WCET, EnergyNJ: p.EnergyNJ, Used: p.Used}
		}
		if err := check(r, r.Fronts, fmt.Sprintf("%s/%d", f.Benchmark, f.SPMSize), pts); err != nil {
			return err
		}
	}
	return nil
}

func (r *reference) cacheBound(bench string, size uint32, assoc int, got uint64) error {
	return check(r, r.CacheBounds, fmt.Sprintf("%s/%d/%d", bench, size, assoc), got)
}

func (r *reference) digest(key, got string) error {
	return check(r, r.Digests, key, got)
}

func check[T any](r *reference, m map[string]T, key string, got T) error {
	want, ok := m[key]
	if r.recording && !ok {
		m[key] = got
		return nil
	}
	if !ok {
		return fmt.Errorf("no reference output for %s", key)
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("%s: output %+v differs from reference %+v", key, got, want)
	}
	return nil
}

// loadReference decodes the embedded reference and cross-checks it
// against the repository's golden files.
func loadReference(repo string) (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := r.crossCheckGolden(repo); err != nil {
		return nil, err
	}
	return &r, nil
}

// goldenAlloc and goldenRow mirror the fields of
// internal/core/testdata/golden that the reference shares.
type goldenAlloc struct {
	WCET     uint64  `json:"wcet"`
	EnergyNJ float64 `json:"energy_nj"`
	SPMUsed  uint32  `json:"spm_used"`
}

type goldenRow struct {
	Benchmark string      `json:"benchmark"`
	SPMSize   uint32      `json:"spm_size"`
	Energy    goldenAlloc `json:"energy_directed"`
	WCET      goldenAlloc `json:"wcet_directed"`
}

// crossCheckGolden requires every scratchpad measurement to carry the
// golden energy-directed bound, occupancy and energy, and every Pareto
// front's endpoints to carry the golden energy- and WCET-directed bounds.
func (r *reference) crossCheckGolden(repo string) error {
	for _, b := range benchprog.All() {
		path := filepath.Join(repo, "internal", "core", "testdata", "golden", b.Name+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		var rows []goldenRow
		if err := json.Unmarshal(raw, &rows); err != nil {
			return fmt.Errorf("reference: %s: %w", path, err)
		}
		if len(rows) == 0 {
			return fmt.Errorf("reference: %s has no rows", path)
		}
		for _, g := range rows {
			key := fmt.Sprintf("%s/spm/%d", g.Benchmark, g.SPMSize)
			p, ok := r.Paper[key]
			if !ok {
				return fmt.Errorf("reference: no %s to check against %s", key, path)
			}
			if p.WCET != g.Energy.WCET || p.SPMUsed != g.Energy.SPMUsed || p.EnergyNJ != g.Energy.EnergyNJ {
				return fmt.Errorf("reference: %s (wcet %d, used %d, energy %v) disagrees with %s (%+v)",
					key, p.WCET, p.SPMUsed, p.EnergyNJ, path, g.Energy)
			}
			// A front runs from the lowest bound (the WCET-directed
			// endpoint) to the lowest energy (the energy-directed one); the
			// two coincide when the front is a single point.
			fkey := fmt.Sprintf("%s/%d", g.Benchmark, g.SPMSize)
			pts := r.Fronts[fkey]
			if len(pts) == 0 || pts[0].WCET != g.WCET.WCET || pts[len(pts)-1].WCET != g.Energy.WCET {
				return fmt.Errorf("reference: front %s %+v disagrees with %s (energy-directed %d, wcet-directed %d)",
					fkey, pts, path, g.Energy.WCET, g.WCET.WCET)
			}
		}
	}
	return nil
}

// recordReference runs every workload's set-up and one round, storing
// their outputs, and writes the reference after checking it against the
// golden files. paper_cold runs first, so the warm_restart set-up checks
// its sweeps against what paper_cold recorded.
func recordReference(repo, out string) error {
	r := &reference{
		Paper:       map[string]paperRow{},
		Fronts:      map[string][]frontPoint{},
		CacheBounds: map[string]uint64{},
		Digests:     map[string]string{},
		recording:   true,
	}
	dir, err := os.MkdirTemp("", "perfbench-record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	for _, name := range workloadList {
		w, err := newWorkload(name, r, dir)
		if err != nil {
			return err
		}
		err = w.setup(ctx)
		for _, op := range w.round(rand.New(rand.NewSource(1))) {
			if err != nil {
				break
			}
			err = op(ctx, nil)
		}
		w.close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if err := r.crossCheckGolden(repo); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(out, buf.Bytes(), 0o644)
}
