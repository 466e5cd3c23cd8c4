package mpstream_test

import (
	"context"
	"fmt"
	"testing"

	"mpstream"
)

func TestFacadeRun(t *testing.T) {
	dev, err := mpstream.TargetByID("gpu")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpstream.DefaultConfig()
	cfg.ArrayBytes = 1 << 20
	res, err := mpstream.Run(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel(mpstream.Triad).GBps <= 0 {
		t.Error("no triad bandwidth")
	}
}

func TestFacadeTargets(t *testing.T) {
	devs := mpstream.Targets()
	if len(devs) != 4 {
		t.Fatalf("got %d targets", len(devs))
	}
	if len(mpstream.TargetIDs()) != 4 {
		t.Fatal("TargetIDs wrong")
	}
}

func TestFacadeExplore(t *testing.T) {
	dev, err := mpstream.TargetByID("aocl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpstream.DefaultConfig()
	cfg.ArrayBytes = 1 << 20
	cfg.NTimes = 1
	ex := mpstream.Explore(dev, cfg, mpstream.Space{VecWidths: []int{1, 8}}, mpstream.Copy)
	best, ok := ex.Best()
	if !ok {
		t.Fatal("no feasible point")
	}
	if best.Config.VecWidth != 8 {
		t.Errorf("best vec width = %d, want 8", best.Config.VecWidth)
	}
}

func TestFacadeExperiment(t *testing.T) {
	e, err := mpstream.RunExperiment("targets")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "targets" {
		t.Errorf("experiment id = %s", e.ID)
	}
	if _, err := mpstream.RunExperiment("bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeHostStream(t *testing.T) {
	res, err := mpstream.RunHost(mpstream.HostConfig{Elems: 1 << 14, NTimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel(mpstream.Copy).GBps <= 0 {
		t.Error("host stream produced no bandwidth")
	}
}

// ExampleRun demonstrates the quickstart flow.
func ExampleRun() {
	dev, _ := mpstream.TargetByID("aocl")
	cfg := mpstream.DefaultConfig()
	cfg.ArrayBytes = 1 << 20
	cfg.Ops = []mpstream.Op{mpstream.Copy}
	res, _ := mpstream.Run(dev, cfg)
	kr := res.Kernel(mpstream.Copy)
	fmt.Println(kr.Verified, kr.GBps > 0.5)
	// Output: true true
}

func TestFacadeService(t *testing.T) {
	svc := mpstream.NewService(mpstream.ServiceOptions{Workers: 2})
	defer svc.Close()
	cfg := mpstream.DefaultConfig()
	cfg.ArrayBytes = 1 << 16
	cfg.Ops = []mpstream.Op{mpstream.Copy}
	job, err := svc.SubmitRun(context.Background(), "cpu", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	v := job.Snapshot()
	if v.Result == nil || v.Result.Kernels[0].GBps <= 0 {
		t.Fatalf("service run failed: %+v", v)
	}
	// Second submission of the same work is served from the cache.
	job2, err := svc.SubmitRun(context.Background(), "cpu", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-job2.Done()
	if !job2.Snapshot().Cached {
		t.Error("repeated service run must be cached")
	}
}
