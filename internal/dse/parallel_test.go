package dse

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mpstream/internal/core"
	"mpstream/internal/device"
	"mpstream/internal/device/targets"
	"mpstream/internal/kernel"
)

func factory(id string) DeviceFactory {
	return func() (device.Device, error) { return targets.ByID(id) }
}

// TestExploreParallelMatchesExplore is the acceptance criterion: the
// parallel explorer returns byte-identical results to the sequential
// one for the same grid.
func TestExploreParallelMatchesExplore(t *testing.T) {
	space := Space{
		VecWidths: []int{1, 4, 16},
		Loops:     []kernel.LoopMode{kernel.NDRange, kernel.FlatLoop},
	}
	for _, id := range []string{"aocl", "cpu"} {
		seq := Explore(dev(t, id), base(), space, kernel.Copy)
		par := ExploreParallel(factory(id), base(), space, kernel.Copy)

		seqJSON, err := json.Marshal(seq)
		if err != nil {
			t.Fatal(err)
		}
		parJSON, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(seqJSON) != string(parJSON) {
			t.Errorf("%s: parallel exploration differs from sequential\n seq %.200s\n par %.200s",
				id, seqJSON, parJSON)
		}
		if seq.Infeasible != par.Infeasible {
			t.Errorf("%s: infeasible %d vs %d", id, seq.Infeasible, par.Infeasible)
		}
	}
}

func TestEvalParallelPreservesOrder(t *testing.T) {
	sizes := []int64{1 << 18, 1 << 20, 1 << 19, 1 << 16, 1 << 17}
	seq := SweepSizes(dev(t, "gpu"), base(), sizes)
	cfgs := make([]core.Config, len(seq))
	labels := make([]string, len(seq))
	for i, p := range seq {
		cfgs[i], labels[i] = p.Config, p.Label
	}
	par := EvalParallel(factory("gpu"), cfgs, labels, 0)
	if len(par) != len(sizes) {
		t.Fatalf("got %d points", len(par))
	}
	for i := range par {
		if par[i].Label != seq[i].Label {
			t.Errorf("point %d label %q, want %q", i, par[i].Label, seq[i].Label)
		}
		if par[i].Config.ArrayBytes != sizes[i] {
			t.Errorf("point %d size %d, want %d", i, par[i].Config.ArrayBytes, sizes[i])
		}
		if !reflect.DeepEqual(par[i].Result.Kernels, seq[i].Result.Kernels) {
			t.Errorf("point %d results differ", i)
		}
	}
}

func TestEvalParallelFactoryError(t *testing.T) {
	boom := errors.New("no such device")
	bad := func() (device.Device, error) { return nil, boom }
	cfgs := Space{VecWidths: []int{1, 2, 4}}.Configs(base())
	pts := EvalParallel(bad, cfgs, nil, 2)
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if !errors.Is(p.Err, boom) {
			t.Errorf("point %d error = %v", i, p.Err)
		}
	}
	ex := Rank(pts, kernel.Copy)
	if ex.Infeasible != 3 || len(ex.Ranked) != 0 {
		t.Errorf("rank = %d infeasible, %d ranked", ex.Infeasible, len(ex.Ranked))
	}
	// All-infeasible explorations marshal ranked as [], not null.
	b, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"ranked":[]`) {
		t.Errorf("empty ranking must encode as []: %s", b)
	}
}

func TestEvalParallelEmpty(t *testing.T) {
	pts := EvalParallel(factory("cpu"), nil, nil, 0)
	if len(pts) != 0 {
		t.Errorf("got %d points for empty grid", len(pts))
	}
}

func TestPointJSONRoundTrip(t *testing.T) {
	cfg := base()
	res, err := core.Run(dev(t, "cpu"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := Point{Label: "demo", Config: cfg.Canonical(), Result: res}
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Point
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("point did not round-trip:\n orig %+v\n back %+v", orig, back)
	}

	failed := Point{Label: "bad", Config: cfg, Err: errors.New("does not fit")}
	b, err = json.Marshal(failed)
	if err != nil {
		t.Fatal(err)
	}
	var backFailed Point
	if err := json.Unmarshal(b, &backFailed); err != nil {
		t.Fatal(err)
	}
	if backFailed.Err == nil || backFailed.Err.Error() != "does not fit" {
		t.Errorf("error did not round-trip: %v", backFailed.Err)
	}
}
