// Command streamschedlint runs the repo's static invariant suite
// (DESIGN.md §9): determcheck, ctxcheck and hotpathcheck.
//
// It speaks the `go vet -vettool` protocol, so both forms work:
//
//	go build -o bin/streamschedlint ./cmd/streamschedlint
//	go vet -vettool=bin/streamschedlint ./...   # as a vet tool
//	bin/streamschedlint ./...                   # standalone
//
// Standalone invocations re-exec through `go vet -vettool=<self>`, which
// gives the analyzers the go command's package loading, export data and
// result caching for free. Suppress a finding with //nolint:streamsched
// (or //nolint:<analyzer>) plus a justification — see DESIGN.md §9.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"streamsched/internal/analysis"
	"streamsched/internal/analysis/suite"
)

func main() {
	args := os.Args[1:]

	// The go command's vettool handshake: identity, flags, then one
	// invocation per compilation unit with a *.cfg file.
	if len(args) == 1 {
		switch {
		case strings.HasPrefix(args[0], "-V"):
			if err := analysis.VersionLine(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "streamschedlint:", err)
				os.Exit(1)
			}
			return
		case args[0] == "-flags":
			fmt.Println("[]") // no analyzer flags
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(analysis.RunUnit(args[0], suite.All))
		}
	}

	// Standalone mode: delegate loading to the go command.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamschedlint:", err)
		os.Exit(1)
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "streamschedlint:", err)
		os.Exit(1)
	}
}
