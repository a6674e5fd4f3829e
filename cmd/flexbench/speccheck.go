package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flexnet/internal/controller"
	"flexnet/internal/fabric"
	"flexnet/internal/spec"
)

// specCheck validates every spec document in dir (make spec-check, CI):
// each *.yaml/*.yml/*.json must load, resolve (every segment's builtin
// kind instantiates), and dry-run cleanly against a freshly generated
// fat-tree fabric — the same three stages `flexctl spec apply` runs
// before touching the network, so a spec that passes here is a spec the
// daemon will accept. Returns the deterministic summary text.
func specCheck(seed int64, dir string) (string, error) {
	var paths []string
	for _, pat := range []string{"*.yaml", "*.yml", "*.json"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return "", err
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("spec-check: no spec documents (*.yaml, *.yml, *.json) in %s", dir)
	}
	sort.Strings(paths)

	var b strings.Builder
	fmt.Fprintf(&b, "spec-check: validating %d spec(s) in %s against a fat-tree k=4 fabric\n", len(paths), dir)
	for _, path := range paths {
		s, err := spec.LoadFile(path)
		if err != nil {
			return "", fmt.Errorf("spec-check: %w", err)
		}
		r, err := spec.Resolve(s)
		if err != nil {
			return "", fmt.Errorf("spec-check: %s: %w", path, err)
		}

		// Fresh fabric per spec: the dry-run diff must see an empty
		// network, so every document validates standalone.
		f := fabric.New(seed)
		if err := fabric.BuildFatTree(f, fabric.FatTreeSpec{K: 4, HostsPerEdge: 1}); err != nil {
			return "", fmt.Errorf("spec-check: %w", err)
		}
		ctl := controller.New(f)
		var rep *controller.SpecReport
		var applyErr error
		done := false
		ctl.ApplySpec(context.Background(), r, controller.SpecOptions{DryRun: true},
			func(rp *controller.SpecReport, err error) { rep, applyErr, done = rp, err, true })
		for i := 0; i < 100 && !done; i++ {
			f.Sim.RunFor(100 * time.Millisecond)
		}
		if !done {
			return "", fmt.Errorf("spec-check: %s: dry-run apply never settled", path)
		}
		if applyErr != nil {
			return "", fmt.Errorf("spec-check: %s: dry-run apply: %w", path, applyErr)
		}
		fmt.Fprintf(&b, "  %-40s %s: %d tenants, %d apps, %d imperative ops in diff\n",
			filepath.Base(path), rep.Version, len(s.Tenants), len(s.Apps), rep.Ops)
	}
	b.WriteString("spec-check: OK — every spec loads, resolves, and dry-runs cleanly.\n")
	return b.String(), nil
}
