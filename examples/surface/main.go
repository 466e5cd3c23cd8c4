// Command surface measures a bandwidth–latency surface on one simulated
// target and prints the knee summary, the full ladder and one curve's
// ASCII chart — the smallest end-to-end tour of the surface subsystem.
package main

import (
	"fmt"
	"os"

	"mpstream"
)

func main() {
	target := "gpu"
	if len(os.Args) > 1 {
		target = os.Args[1]
	}
	dev, err := mpstream.TargetByID(target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s, err := mpstream.RunSurface(dev, mpstream.SurfaceConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("bandwidth–latency surface of %s (%s)\n\n", s.Device.ID, s.Device.Description)
	if err := s.KneeTable().WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()
	if err := s.Table().WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()
	if err := s.Curves[0].Chart().Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
