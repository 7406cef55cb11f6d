package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"path"
	"sort"
	"sync"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/repair"
	"faultyrank/internal/scanner"
	"faultyrank/internal/wire"
	"faultyrank/internal/workload"
)

const mib = 1 << 20

// stripeSize is the aged clusters' stripe size (the paper's 64 KiB).
const stripeSize = 64 << 10

// agedCluster builds one MDT + 8 OSTs on the compact geometry and ages
// it with workload.Age to target MDT inodes. It returns the live files.
func agedCluster(target, seed int64) (*lustre.Cluster, []string, error) {
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: stripeSize, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		return nil, nil, err
	}
	alive, err := workload.Age(c, workload.AgeSpec{
		TargetMDTInodes: target, ChurnFraction: 0.15, Seed: seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("aging: %w", err)
	}
	return c, alive, nil
}

// pickVictims picks n injection victims deterministically from seed:
// files of three or more stripes, each in its own directory, so no
// injection can wipe another's victim (a destroyed directory takes its
// files' dirents with it).
func pickVictims(c *lustre.Cluster, alive []string, n int, seed int64) ([]string, error) {
	order := append([]string(nil), alive...)
	sort.Strings(order)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	used := map[string]bool{}
	var picked []string
	for _, p := range order {
		if len(picked) == n {
			break
		}
		dir := path.Dir(p)
		if used[dir] {
			continue
		}
		ent, err := c.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("victim %s: %w", p, err)
		}
		if ent.Size > 2*stripeSize {
			used[dir] = true
			picked = append(picked, p)
		}
	}
	if len(picked) < n {
		return nil, fmt.Errorf("found %d multi-stripe victims in distinct directories, need %d", len(picked), n)
	}
	return picked, nil
}

// identified restates the Fig. 7 ground-truth rule: the checker named
// the injected fault — the right FID (old or new identity) with the
// right field, or the equivalent structural finding for the stale and
// duplicate-identity scenarios.
func identified(fs []checker.Finding, inj *inject.Injection) bool {
	has := func(k checker.FindingKind, fid lustre.FID) bool {
		for _, f := range fs {
			if f.Kind == k && f.FID == fid {
				return true
			}
		}
		return false
	}
	switch inj.Scenario {
	case inject.UnrefStaleObject:
		for _, f := range fs {
			if f.Kind == checker.StaleObject {
				return true
			}
		}
		return false
	case inject.DoubleRefLMA:
		return has(checker.DuplicateIdentity, inj.VictimFID)
	}
	want := checker.FaultyProperty
	if inj.Field == core.FieldID {
		want = checker.FaultyID
	}
	return has(want, inj.VictimFID) || (!inj.NewFID.IsZero() && has(want, inj.NewFID))
}

// checkInjections reports the first injection the findings miss.
func checkInjections(fs []checker.Finding, injs []*inject.Injection) error {
	for _, inj := range injs {
		if !identified(fs, inj) {
			return fmt.Errorf("injected %s (%s) not identified", inj.Scenario, inj.Description)
		}
	}
	return nil
}

// findingsDigest hashes every field of every finding, score bits
// included, so equal digests mean byte-identical findings.
func findingsDigest(fs []checker.Finding) string {
	h := sha256.New()
	for _, f := range fs {
		fmt.Fprintf(h, "%d|%v|%d|%016x|%s|%d|%+v\n",
			f.Kind, f.FID, f.Field, math.Float64bits(f.Score), f.Detail, f.Blast, f.Repairs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// offline is offline-tcp (k = 1) and partitioned-tcp (k = 2): a full
// check from images to classified findings over the TCP scan path.
type offline struct {
	k       int
	workers int
	images  []*ldiskfs.Image
	injs    []*inject.Injection
	// ref is the digest of a K=1 check's findings: every check of
	// either workload must reproduce it.
	ref      string
	repaired bool
}

func (o *offline) opt(k int) checker.Options {
	opt := checker.DefaultOptions()
	opt.UseTCP = true
	opt.Workers = o.workers
	opt.RankWorkers = k
	return opt
}

func (o *offline) setup(e env) error {
	o.workers = e.Workers
	c, alive, err := agedCluster(e.Sizes.MDTInodes, e.Seed)
	if err != nil {
		return err
	}
	victims, err := pickVictims(c, alive, inject.NumScenarios, e.Seed)
	if err != nil {
		return err
	}
	for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
		inj, err := inject.Inject(c, s, victims[s])
		if err != nil {
			return fmt.Errorf("injecting %s into %s: %w", s, victims[s], err)
		}
		o.injs = append(o.injs, inj)
	}
	o.images = checker.ClusterImages(c)
	return nil
}

func (o *offline) prepare() error {
	res, err := checker.RunContext(context.Background(), o.images, o.opt(1))
	if err != nil {
		return fmt.Errorf("reference K=1 check: %w", err)
	}
	o.ref = findingsDigest(res.Findings)
	return nil
}

// verify checks one check's result against the injections and the
// K=1 reference.
func (o *offline) verify(res *checker.Result) error {
	if res.Coverage.Degraded() {
		return fmt.Errorf("degraded: missing %v", res.Coverage.Missing)
	}
	if res.RankExec != nil && res.RankExec.Fallback != "" {
		return fmt.Errorf("rank fell back: %s", res.RankExec.Fallback)
	}
	if err := checkInjections(res.Findings, o.injs); err != nil {
		return err
	}
	if d := findingsDigest(res.Findings); d != o.ref {
		return fmt.Errorf("findings differ from the K=1 reference (%d findings, digest %.12s, want %.12s)",
			len(res.Findings), d, o.ref)
	}
	return nil
}

func (o *offline) round() (roundTimes, error) {
	t0 := time.Now()
	res, err := checker.RunContext(context.Background(), o.images, o.opt(o.k))
	t := roundTimes{check: time.Since(t0)}
	if err != nil {
		return roundTimes{}, err
	}
	return t, o.verify(res)
}

func (o *offline) finish() (int, error) { return 0, nil }

// chunkList is a scanner.Sink that keeps a server's chunk stream.
type chunkList struct{ chunks []*scanner.Chunk }

func (l *chunkList) Emit(c *scanner.Chunk) error {
	l.chunks = append(l.chunks, c)
	return nil
}

// walk drives the check's layers one at a time: scan every image,
// encode the chunks, ship them over a loopback TCP connection, decode,
// merge, build the CSR, rank (single kernel, or partition plan plus
// superstep exchange over TCP), detect, then classify through the
// checker. The offline-tcp walk also repairs a clone of the images once.
func (o *offline) walk(tr *tracer, lm layerValues) error {
	var (
		streams [][]*scanner.Chunk
		inodes  int64
		imgMB   float64
	)
	scanS, err := tr.do("scanner.scan", true, func() error {
		for _, img := range o.images {
			var l chunkList
			_, err := tr.do("scanner.scan:"+img.Label(), false, func() error {
				return scanner.ScanImageToSink(img, o.workers, scanner.DefaultChunkEntries, &l)
			})
			if err != nil {
				return err
			}
			for _, c := range l.chunks {
				inodes += c.Stats.InodesScanned
			}
			imgMB += float64(len(img.Bytes())) / 1e6
			streams = append(streams, l.chunks)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lm.add("scanner.scan_s", scanS)
	lm.add("scanner.inodes", float64(inodes))
	lm.add("scanner.mb_per_s", imgMB/scanS)

	var payloads [][]byte
	encS, _ := tr.do("wire.encode", true, func() error {
		for _, s := range streams {
			for _, c := range s {
				payloads = append(payloads, wire.EncodeChunk(c))
			}
		}
		return nil
	})
	var (
		got   [][]byte
		bytes int64
	)
	xferS, err := tr.do("wire.transfer", true, func() (err error) {
		got, bytes, err = transferFrames(payloads)
		return err
	})
	if err != nil {
		return err
	}
	var chunks []*scanner.Chunk
	decS, err := tr.do("wire.decode", true, func() error {
		for _, p := range got {
			c, err := wire.DecodeChunk(p)
			if err != nil {
				return err
			}
			chunks = append(chunks, c)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lm.add("wire.encode_s", encS)
	lm.add("wire.transfer_s", xferS)
	lm.add("wire.decode_s", decS)
	lm.add("wire.bytes", float64(bytes))
	lm.add("wire.frames", float64(len(got)))

	labels := make([]string, len(o.images))
	for i, img := range o.images {
		labels[i] = img.Label()
	}
	var u *agg.Unified
	mergeS, err := tr.do("agg.merge", true, func() error {
		b := agg.NewBuilder(labels)
		for _, c := range chunks {
			if err := b.Emit(c); err != nil {
				return err
			}
		}
		var err error
		u, err = b.Finish(o.workers)
		return err
	})
	if err != nil {
		return err
	}
	lm.add("agg.merge_s", mergeS)
	lm.add("agg.fids", float64(u.N()))
	lm.add("agg.fids_per_s", float64(u.N())/mergeS)

	var g *graph.Bidirected
	buildS, _ := tr.do("graph.build", true, func() error {
		g = u.Build(o.workers)
		return nil
	})
	edges := float64(g.Fwd.NumEdges())
	lm.add("graph.build_s", buildS)
	lm.add("graph.edges_per_s", edges/buildS)
	lm.add("graph.csr_mib", float64(g.MemoryBytes())/mib)

	copt := core.DefaultOptions()
	var rank *core.Result
	if o.k <= 1 {
		rankS, _ := tr.do("core.rank", true, func() error {
			rank = core.Run(g, copt)
			return nil
		})
		lm.add("core.rank_s", rankS)
		lm.add("core.edge_updates_per_s", 2*edges*float64(rank.Iterations)/rankS)
	} else if rank, err = o.partitionedRank(tr, lm, u, g, copt, edges); err != nil {
		return err
	}
	lm.add("core.iterations", float64(rank.Iterations))

	detS, _ := tr.do("core.detect", false, func() error {
		core.Detect(g, rank, u.Present, copt)
		return nil
	})
	lm.add("core.detect_s", detS)

	// Classification has no entry point of its own: the checker runs it
	// (after its own build and rank) and times it as the classify span.
	res := &checker.Result{}
	if _, err := tr.do("checker.analyze", false, func() error {
		return checker.AnalyzeUnified(res, o.images, u, o.opt(o.k))
	}); err != nil {
		return err
	}
	tr.phases("checker.analyze", res.Phases, map[string]bool{"classify": true})
	if n := res.Phases.Find("classify"); n != nil {
		lm.add("checker.classify_s", n.Seconds)
	}

	_, err = tr.do("bench.verify", false, func() error {
		if err := o.verify(res); err != nil {
			return fmt.Errorf("traced findings: %w", err)
		}
		if !sameRanks(rank, res.Rank) {
			return fmt.Errorf("layer-driven ranks differ from the checker's")
		}
		return nil
	})
	if err != nil {
		return err
	}
	if o.k <= 1 && !o.repaired {
		o.repaired = true
		return o.repairClone(tr, lm, res)
	}
	return nil
}

// partitionedRank runs the K-way rank the way the checker's TCP path
// does: plan the partitions, then a coordinator exchanging superstep
// frames with K workers over loopback TCP links.
func (o *offline) partitionedRank(tr *tracer, lm layerValues, u *agg.Unified, g *graph.Bidirected, copt core.Options, edges float64) (*core.Result, error) {
	var (
		plan  *graph.Plan
		blobs [][]byte
		sums  []uint64
	)
	partS, _ := tr.do("graph.partition", true, func() error {
		plan = graph.PartitionPlan(g, u.PartitionOwners(o.k), o.k, o.workers)
		for _, sub := range plan.Parts {
			b := graph.EncodeSubGraph(sub)
			blobs = append(blobs, b)
			sums = append(sums, graph.FingerprintShard(b))
		}
		return nil
	})
	lm.add("graph.partition_s", partS)
	lm.add("graph.cut_edges", float64(plan.CutEdges()))

	var (
		rank   *core.Result
		rep    *core.ExchangeReport
		stamps []time.Time
	)
	rankS, err := tr.do("core.rank", true, func() error {
		x, addr, err := wire.NewRankExchange("", 0)
		if err != nil {
			return err
		}
		defer x.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		wopt := copt
		wopt.Workers = max(o.workers/o.k, 1)
		errs := make([]error, o.k)
		var wg sync.WaitGroup
		for p := 0; p < o.k; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				conn, err := wire.DialRankLink(ctx, addr, p, o.k, sums[p], wire.DefaultRetryPolicy(), 0)
				if err != nil {
					errs[p] = err
					cancel()
					return
				}
				defer conn.Close()
				errs[p] = core.RunPartition(core.NewPartState(plan.Parts[p], wopt), conn)
			}(p)
		}
		links, err := x.AcceptWorkers(ctx, wire.WorkerSpec{
			K: o.k, Sums: sums, Shard: func(p int) []byte { return blobs[p] },
		})
		if err != nil {
			x.Close()
			cancel()
			wg.Wait()
			return fmt.Errorf("rank handshake: %w (worker errors %v)", err, errs)
		}
		cc := copt
		stamps = append(stamps, time.Now())
		cc.OnIteration = func(int, float64) { stamps = append(stamps, time.Now()) }
		rank, rep, err = core.Coordinate(plan, links, cc)
		x.Close()
		wg.Wait()
		if err != nil {
			return err
		}
		return errors.Join(errs...)
	})
	if err != nil {
		return nil, err
	}
	var steps []float64
	for i := 1; i < len(stamps); i++ {
		steps = append(steps, stamps[i].Sub(stamps[i-1]).Seconds())
	}
	lm.add("core.rank_s", rankS)
	lm.add("core.edge_updates_per_s", 2*edges*float64(rank.Iterations)/rankS)
	lm.add("core.supersteps", float64(len(rep.Supersteps)))
	if len(steps) > 0 {
		lm.add("core.superstep_s", median(steps))
	}
	lm.add("wire.rank_bytes", float64(rep.UpBytes+rep.DownBytes))
	return rank, nil
}

// repairClone applies the checker's repairs to a clone of the images
// and re-checks the clone, which must come back clean.
func (o *offline) repairClone(tr *tracer, lm layerValues, res *checker.Result) error {
	clones := make([]*ldiskfs.Image, len(o.images))
	for i, img := range o.images {
		c, err := ldiskfs.FromBytes(append([]byte(nil), img.Bytes()...))
		if err != nil {
			return fmt.Errorf("cloning %s: %w", img.Label(), err)
		}
		c.SetLabel(img.Label())
		clones[i] = c
	}
	var sum *repair.Summary
	applyS, _ := tr.do("repair.apply", false, func() error {
		sum = repair.NewEngine(clones, res).Apply(res.Findings)
		return nil
	})
	lm.add("repair.apply_s", applyS)
	lm.add("repair.applied", float64(sum.Applied))
	_, err := tr.do("bench.recheck", false, func() error {
		after, err := checker.Run(clones, checker.Options{Workers: o.workers})
		if err != nil {
			return fmt.Errorf("re-check after repair: %w", err)
		}
		if len(after.Findings) != 0 || after.Stats.UnpairedEdges != 0 {
			return fmt.Errorf("re-check after %d repairs: %d findings, %d unpaired edges",
				sum.Applied, len(after.Findings), after.Stats.UnpairedEdges)
		}
		return nil
	})
	return err
}

// sameRanks reports bitwise equality of two rank results.
func sameRanks(a, b *core.Result) bool {
	if a.Iterations != b.Iterations || len(a.IDRank) != len(b.IDRank) || len(a.PropRank) != len(b.PropRank) {
		return false
	}
	for i := range a.IDRank {
		if math.Float64bits(a.IDRank[i]) != math.Float64bits(b.IDRank[i]) ||
			math.Float64bits(a.PropRank[i]) != math.Float64bits(b.PropRank[i]) {
			return false
		}
	}
	return true
}

// transferFrames ships payloads as MsgChunk frames over a loopback TCP
// connection and returns what the receiver read, with the bytes it
// read (frame headers included).
func transferFrames(payloads [][]byte) ([][]byte, int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	defer ln.Close()
	type received struct {
		frames [][]byte
		bytes  int64
		err    error
	}
	done := make(chan received, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- received{err: err}
			return
		}
		defer conn.Close()
		cr := &countingReader{r: bufio.NewReaderSize(conn, 256<<10)}
		var got received
		for len(got.frames) < len(payloads) {
			typ, p, err := wire.ReadFrame(cr)
			if err != nil {
				got.err = err
				break
			}
			if typ != wire.MsgChunk {
				got.err = fmt.Errorf("frame type %d, want chunk", typ)
				break
			}
			got.frames = append(got.frames, p)
		}
		got.bytes = cr.n
		done <- got
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return nil, 0, err
	}
	w := bufio.NewWriterSize(conn, 256<<10)
	for _, p := range payloads {
		if err = wire.WriteFrame(w, wire.MsgChunk, p); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		conn.Close()
		<-done
		return nil, 0, err
	}
	got := <-done
	conn.Close()
	return got.frames, got.bytes, got.err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
