// Command clizinspect prints the internal structure of a CliZ blob —
// header, pipeline, per-section byte budget, nested template/residual blobs
// and parallel chunks — without decompressing the payload.
//
//	clizinspect field.clz
//
// With -verify every integrity checksum of a v3 blob is recomputed (v1/v2
// blobs are walked structurally) and a per-section damage report is printed;
// the exit status is non-zero when any section fails.
//
//	clizinspect -verify field.clz
//
// With -decode the blob is additionally decompressed under a stage
// collector and a per-stage timing table (aggregated across chunks and
// template/residual sub-blobs) is printed. -bound-check n additionally
// replays the prediction traversal over the decoded output, re-verifying
// every n-th point against the error bound.
//
//	clizinspect -decode field.clz
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cliz/internal/core"
	"cliz/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main; it returns the exit status. A blob whose
// structure cannot be inspected still gets its -verify damage report, which
// is what names the broken header or chunk.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clizinspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	decode := fs.Bool("decode", false, "decompress the blob and print a decode stage table")
	verify := fs.Bool("verify", false, "recompute all integrity checksums and print a damage report")
	boundCheck := fs.Int("bound-check", 0, "with -decode: re-verify every n-th decoded point against the error bound (0 = off)")
	workers := fs.Int("workers", 0, "decode workers (0 = all cores for a chunked blob, serial otherwise)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: clizinspect [-verify] [-decode [-bound-check n]] <file.clz>")
		return 2
	}
	blob, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "clizinspect:", err)
		return 1
	}
	status := 0
	if info, err := core.Inspect(blob); err != nil {
		fmt.Fprintln(stderr, "clizinspect:", err)
		status = 1
	} else {
		fmt.Fprint(stdout, info)
		if n := info.IntegrityTotal(); n > 0 {
			fmt.Fprintf(stdout, "integrity overhead: %d bytes (%.3f%% of blob)\n",
				n, 100*float64(n)/float64(len(blob)))
		}
	}
	if *verify {
		rep := core.Verify(blob)
		fmt.Fprintf(stdout, "\n%s", rep)
		if !rep.OK() {
			status = 1
		}
	}
	if status != 0 {
		return status
	}
	if *decode {
		var rec trace.Recorder
		opt := core.DecompressOptions{Workers: *workers, Trace: &rec, BoundCheckEvery: *boundCheck}
		data, _, err := core.Decompress(blob, opt)
		if err != nil {
			fmt.Fprintln(stderr, "clizinspect: decode:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\ndecode stages (%d points):\n%s", len(data), trace.Table(rec.Aggregate()))
	}
	return 0
}
