package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance records where and on what a result was measured. ns-per-unit
// figures compare only between runs with the same cpu_model; work counts
// compare regardless.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	// Source is a SHA-256 over the repository's go.mod and Go files, which
	// identifies the code under test when the checkout carries no git data.
	Source string `json:"source_sha256"`
	// CalibMs are the run's calibration probes, in order.
	CalibMs []float64 `json:"calib_ms"`
	// Scale is the factor the end-to-end times were scaled by, and Raw holds
	// them as measured (untraced runs only).
	Scale float64            `json:"scale,omitempty"`
	Raw   map[string]float64 `json:"raw,omitempty"`
}

func newProvenance(name string, cfg runConfig, probes []float64) provenance {
	return provenance{
		Workload:   name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Traced:     cfg.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Source:     sourceDigest("."),
		CalibMs:    probes,
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root, skipping hidden
// directories (the build cache lives in one), in path order.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(path))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
