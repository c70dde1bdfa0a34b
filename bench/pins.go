package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// pinsJSON holds the report digests every build checks against:
// size -> workload -> seed -> SHA-256 of the report (for the service, of
// the manifest of its jobs' report digests). A seed without a pin is
// checked only for repeating the same bytes in every repetition.
//
//go:embed testdata/digests.json
var pinsJSON []byte

type pinSet map[string]map[string]map[string]string

func parsePins(b []byte) (pinSet, error) {
	p := pinSet{}
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("digest pins: %w", err)
	}
	return p, nil
}

// writePins runs one untraced repetition of each selected workload at
// each pin seed and records its digest in o.pinOut, keeping the file's
// other pins. A service digest is pinned only when a solo in-process run
// of every job reproduces it.
func writePins(ctx context.Context, o options, selected []workload, stderr io.Writer) int {
	pins := pinSet{}
	b, err := os.ReadFile(o.pinOut)
	if err == nil {
		pins, err = parsePins(b)
	} else if os.IsNotExist(err) {
		err = nil
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(o.work, "pin-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	for _, w := range selected {
		for _, s := range strings.Split(o.pinSeeds, ",") {
			seed := strings.TrimSpace(s)
			if _, err := strconv.ParseInt(seed, 10, 64); err != nil {
				fmt.Fprintf(stderr, "bench: bad pin seed %q\n", s)
				return 2
			}
			d, err := pinDigest(ctx, w, seed, o.size, dir)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %s: %v\n", w.name, seed, err)
				return 1
			}
			if pins[o.size] == nil {
				pins[o.size] = map[string]map[string]string{}
			}
			if pins[o.size][w.name] == nil {
				pins[o.size][w.name] = map[string]string{}
			}
			pins[o.size][w.name][seed] = d
			fmt.Fprintf(stderr, "pinned %s %s seed %s: %s\n", o.size, w.name, seed, d)
		}
	}
	if err := writeJSON(o.pinOut, pins); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func pinDigest(ctx context.Context, w workload, seed, size, dir string) (string, error) {
	runMode := func(mode string) (string, error) {
		c, err := spawn(ctx, filepath.Join(dir, mode+".json"),
			"-workload", w.name, "-seed", seed, "-size", size, "-mode", mode, "-work", dir)
		if err != nil {
			return "", err
		}
		if len(c.res.Problems) > 0 || c.res.Failed > 0 {
			return "", fmt.Errorf("%s run: %d failed, problems %v", mode, c.res.Failed, c.res.Problems)
		}
		return c.res.Digest, nil
	}
	d, err := runMode(modeRun)
	if err != nil || w.name != "service" {
		return d, err
	}
	solo, err := runMode(modeSolo)
	if err == nil && solo != d {
		err = fmt.Errorf("service digest %s differs from the solo runs' %s", d, solo)
	}
	return d, err
}
