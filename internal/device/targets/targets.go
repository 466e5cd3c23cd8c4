// Package targets assembles the paper's four benchmark devices into a
// registry, in the order the figures use: aocl, sdaccel, cpu, gpu.
package targets

import (
	"fmt"

	"mpstream/internal/device"
	"mpstream/internal/device/aocl"
	"mpstream/internal/device/cpusim"
	"mpstream/internal/device/gpusim"
	"mpstream/internal/device/sdaccel"
)

// IDs lists the target ids in figure order.
func IDs() []string { return []string{"aocl", "sdaccel", "cpu", "gpu"} }

// All returns fresh instances of the four paper targets in figure order.
// Instances carry warm state (CPU LLC, GPU L2) across kernel invocations,
// exactly as hardware does; call Reset between unrelated experiments.
func All() []device.Device {
	return []device.Device{aocl.New(), sdaccel.New(), cpusim.New(), gpusim.New()}
}

// ByID returns a fresh instance of one target, building only that one.
func ByID(id string) (device.Device, error) {
	switch id {
	case "aocl":
		return aocl.New(), nil
	case "sdaccel":
		return sdaccel.New(), nil
	case "cpu":
		return cpusim.New(), nil
	case "gpu":
		return gpusim.New(), nil
	}
	return nil, fmt.Errorf("device: unknown target %q", id)
}
