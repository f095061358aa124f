package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/problemio"
)

// solverWorkload is a single-problem solver workload: a synthetic
// problem of the paper's power-law family, solved by one method with
// approximate rounding at a fixed iteration count.
type solverWorkload struct {
	name       string
	method     core.Method
	iterations int
	synthetic  func(seed int64) (gen.SyntheticOptions, error)
}

var solverWorkloads = []solverWorkload{
	{
		// The paper's Figure 4 shape: n=8192, d̄=8, nnz(S)≈2.24M.
		name: "bp-fig4", method: core.MethodBP, iterations: 20,
		synthetic: func(seed int64) (gen.SyntheticOptions, error) { return gen.FigPreset("fig4", seed) },
	},
	{
		// The Figure 2 recipe at n=2048, d̄=8: nnz(S)≈156k.
		name: "mr-n2048", method: core.MethodMR, iterations: 40,
		synthetic: func(seed int64) (gen.SyntheticOptions, error) {
			so := gen.DefaultSynthetic(8, seed)
			so.N = 2048
			return so, nil
		},
	},
}

func findSolverWorkload(name string) (solverWorkload, bool) {
	for _, w := range solverWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return solverWorkload{}, false
}

// inputPath is where a solver workload's generated problem is cached,
// keyed by (workload, seed). A sidecar file holds its SHA-256.
func inputPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, "inputs", fmt.Sprintf("%s-seed%d.na", workload, seed))
}

// loadInput returns the cached problem bytes for (workload, seed),
// generating them first in a child process when the cache has no
// entry or the entry fails its content-hash check. Generation runs in
// a child so it never counts towards the workload's peak RSS; it is
// not timed.
func loadInput(dir string, w solverWorkload, seed int64) ([]byte, error) {
	path := inputPath(dir, w.name, seed)
	if data, ok := readVerified(path); ok {
		return data, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "gen", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--out", path)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("generate %s seed %d: %w", w.name, seed, err)
	}
	data, ok := readVerified(path)
	if !ok {
		return nil, fmt.Errorf("generated input %s fails its hash check", path)
	}
	return data, nil
}

func readVerified(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	want, err := os.ReadFile(path + ".sha256")
	if err != nil {
		return nil, false
	}
	sum := sha256.Sum256(data)
	return data, hex.EncodeToString(sum[:]) == strings.TrimSpace(string(want))
}

// generateInput builds the workload's problem for seed and writes it,
// with its hash sidecar, to path (each via temp file and rename, hash
// last, so a torn write never verifies).
func generateInput(name string, seed int64, path string) error {
	w, ok := findSolverWorkload(name)
	if !ok {
		return fmt.Errorf("no solver workload %q", name)
	}
	so, err := w.synthetic(seed)
	if err != nil {
		return err
	}
	p, err := gen.Synthetic(so)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := problemio.Write(&buf, p); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeAtomic(path, buf.Bytes()); err != nil {
		return err
	}
	return writeAtomic(path+".sha256", []byte(hex.EncodeToString(sum[:])+"\n"))
}

func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// inputSize records a problem's dimensions and the computed bytes of
// S's arrays (CSR pointers, columns and values, the transpose
// permutation and the row index), so bandwidth figures can be read
// against the cache sizes in hostInfo.
type inputSize struct {
	V         []int `json:"V"`
	EL        int   `json:"E_L"`
	NnzS      int   `json:"nnzS"`
	SBytes    int64 `json:"sBytes"`
	TextBytes int   `json:"textBytes,omitempty"`
}

func sizeOf(p *core.Problem, textBytes int) inputSize {
	const word = strconv.IntSize / 8
	s := p.S
	b := int64(len(s.Ptr)+len(s.Col)+len(p.SPerm)+len(p.SRow))*word + int64(len(s.Val))*8
	return inputSize{
		V:  []int{p.A.NumVertices(), p.B.NumVertices()},
		EL: p.L.NumEdges(), NnzS: p.NNZS(), SBytes: b, TextBytes: textBytes,
	}
}
