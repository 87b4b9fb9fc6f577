package main

// CPU-profile attribution: a traced run records a runtime/pprof CPU
// profile, and the flat (self) time of every function in it is charged
// to one layer of the system by the package the function belongs to.

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the profile layers in report order; the reported shares
// of one profile sum to 1. "other" is unattributed time: frames
// without a function, or a package no rule below names.
var layers = []string{
	"crypt", "masu", "controller", "sim", "cpu", "nvm", "workload",
	"harness", "service", "runtime", "std", "other",
}

// internalLayer maps every package under internal/ to its layer. A
// package missing here lands in "other" at run time and fails
// TestInternalPackagesHaveLayers, so a new package must be placed.
var internalLayer = map[string]string{
	"crypt": "crypt",

	"masu": "masu", "bmt": "masu", "toc": "masu", "ctr": "masu",
	"dense": "masu", "scheme": "masu", "layout": "masu",

	"controller": "controller", "wpq": "controller", "misu": "controller",

	"sim": "sim",

	"cpu": "cpu", "cache": "cpu", "mcore": "cpu",

	"nvm": "nvm",

	"whisper": "workload", "trace": "workload", "pmem": "workload",

	"core": "harness", "stats": "harness", "telemetry": "harness",
	"cliutil": "harness", "crash": "harness", "attack": "harness",

	"service": "service", "store": "service", "cluster": "service",
	"fault": "service",
}

// stdService lists the standard-library package prefixes that carry the
// service's HTTP, JSON and file I/O; their time is the service's.
var stdService = []string{
	"net", "net/", "vendor/golang.org/x/net/", "encoding/", "bufio", "io",
	"io/", "os", "os/", "syscall", "internal/poll", "internal/syscall/",
	"mime", "mime/", "hash/crc32", "log",
}

// funcPackage returns the import path of a symbol name such as
// "dolos/internal/crypt.(*Engine).mac" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiations may hold slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func hasAnyPrefix(pkg string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) {
			return true
		}
	}
	return false
}

// layerOf maps a package import path to its layer.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "dolos/internal/"); ok {
		if l, ok := internalLayer[strings.SplitN(rest, "/", 2)[0]]; ok {
			return l
		}
		return "other"
	}
	switch {
	case pkg == "dolos" || strings.HasPrefix(pkg, "dolos/") || pkg == "main":
		// The façade, the client and this benchmark's own code.
		return "harness"
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/") ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/crypto/"):
		return "crypt"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		pkg == "sync" || strings.HasPrefix(pkg, "sync/") ||
		strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "type:" || strings.HasPrefix(pkg, "type:"):
		return "runtime"
	case hasAnyPrefix(pkg, stdService):
		return "service"
	case pkg != "" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		// Any other standard-library package (fmt, strconv, sort, math,
		// reflect, time, ...): a first path element without a dot.
		return "std"
	}
	return "other"
}

// profileShares charges the flat (self) CPU time of every function in
// the CPU profile at path to its layer and returns each layer's share,
// plus the sampled total in seconds. `go tool pprof -top` reads the
// profile; run.sh puts the toolchain that built the benchmark on PATH.
func profileShares(path string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-trim=false", "-unit=ns", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	flat, err := parseTop(out)
	if err != nil {
		return nil, 0, err
	}
	byLayer := make(map[string]float64)
	var total float64
	for fn, ns := range flat {
		byLayer[layerOf(funcPackage(fn))] += ns
		total += ns
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = byLayer[l] / total
		}
	}
	return shares, total / 1e9, nil
}

// parseTop reads the flat nanoseconds per function from the output of
// `pprof -top -unit=ns`: after the "flat flat% sum% cum cum%" header,
// one row per function, its name last (inlined ones end in "(inline)").
func parseTop(out []byte) (map[string]float64, error) {
	flat := make(map[string]float64)
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: row %q: %v", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		flat[name] += ns
	}
	if !rows {
		return nil, errors.New("pprof -top: no flat/cum header in its output")
	}
	return flat, nil
}
