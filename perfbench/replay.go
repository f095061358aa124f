package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"netalignmc/internal/cache"
	"netalignmc/internal/core"
	"netalignmc/internal/problemio"
	"netalignmc/internal/server"
)

// replay times, over serve-mix's timed problems, the per-
// submission layers the router and the nodes run: the router's cache
// key (Spec.CacheKey: parse, S build, canonicalisation, SHA-256),
// parse and S build apart, canonicalisation (problemio.Write),
// cache.KeyFor alone, and the node's fsynced spool writes of problem,
// job record and result. Each value is the median over problems.
func replay(inputs []mixInput, refs map[int]*reference, tmp string, v map[string]float64) error {
	store, err := server.NewStore(filepath.Join(tmp, "replay-spool"))
	if err != nil {
		return err
	}
	threads := runtime.GOMAXPROCS(0)
	var keyMS, parseMS, buildMS, writeMS, keyforUS, storeMS []float64
	for i, in := range inputs {
		ref, ok := refs[i]
		if !ok {
			// Its reference solve failed, which the run already counts
			// as a failure; there is no result to write.
			continue
		}
		spec := in.spec()
		t0 := time.Now()
		key, canon, err := spec.CacheKey(threads)
		keyMS = append(keyMS, ms(time.Since(t0)))
		if err != nil {
			return err
		}

		t0 = time.Now()
		p, err := problemio.Read(strings.NewReader(string(canon)), threads)
		read := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := core.NewProblem(p.A, p.B, p.L, p.Alpha, p.Beta, threads); err != nil {
			return err
		}
		build := time.Since(t0)
		parseMS = append(parseMS, ms(read-build))
		buildMS = append(buildMS, ms(build))

		var buf bytes.Buffer
		t0 = time.Now()
		err = problemio.Write(&buf, p)
		writeMS = append(writeMS, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), canon) {
			return fmt.Errorf("problem %d: canonical form is not stable under a write-read round trip", i)
		}

		o, err := solveOptions(in, 1)
		if err != nil {
			return err
		}
		fp, ok := o.CacheFingerprint()
		if !ok {
			return fmt.Errorf("problem %d: options are not cacheable", i)
		}
		t0 = time.Now()
		k := cache.KeyFor(canon, fp)
		keyforUS = append(keyforUS, float64(time.Since(t0))/float64(time.Microsecond))
		if k != key {
			return fmt.Errorf("problem %d: cache.KeyFor disagrees with Spec.CacheKey", i)
		}

		id := fmt.Sprintf("%016x", i+1)
		if err := store.CreateJob(id); err != nil {
			return err
		}
		t0 = time.Now()
		err = store.SaveProblemBytes(id, canon)
		if err == nil {
			err = store.SaveMeta(&server.Meta{ID: id, Spec: spec, State: server.StateDone, Created: t0, Started: t0, Finished: t0})
		}
		if err == nil {
			err = store.SaveResultBytes(id, ref.bytes)
		}
		storeMS = append(storeMS, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	v["cluster.key_ms"] = median(keyMS)
	v["problemio.parse_ms"] = median(parseMS)
	v["core.build_s_ms"] = median(buildMS)
	v["problemio.write_ms"] = median(writeMS)
	v["cache.keyfor_us"] = median(keyforUS)
	v["server.store_write_ms"] = median(storeMS)
	return nil
}
