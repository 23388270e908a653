// Command mdgan-bench regenerates every table and figure of the
// paper's evaluation section (experiments.go in the repo root is the index)
// and writes the series to stdout and, optionally, CSV files. It times
// nothing: the benchmark a performance change is judged by is
// `go run ./bench` (BENCHMARK.json).
//
//	mdgan-bench                       # quick scale, all experiments
//	mdgan-bench -only fig3            # one experiment
//	mdgan-bench -scale full           # paper-closer scale (hours on CPU)
//	mdgan-bench -csv results/         # also write CSV series
//	mdgan-bench -list-kernels         # GEMM kernel tiers this host can run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mdgan"
	"mdgan/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdgan-bench: ")
	os.Exit(report(run(os.Args[1:], os.Stdout)))
}

// usageError is a flag-parse error, which the flag package has already
// printed with the usage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// report prints run's error unless the flag package already has, and
// returns the exit status: 0 on success and for -h, 2 for a usage error
// (as the flag package's ExitOnError does), 1 for any other error.
func report(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	log.Print(err)
	return 1
}

// run is main without the process: it parses args, prints the selected
// experiments to stdout and returns the first error. Flag-parse errors
// (and -h, as flag.ErrHelp) come back as a usageError: the flag package
// has already reported them on stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdgan-bench", flag.ContinueOnError)
	var (
		only      = fs.String("only", "", "run one experiment: table2|table3|table4|fig2|fig3|fig4|fig5|fig6")
		scale     = fs.String("scale", "quick", "experiment scale: quick | full")
		workers   = fs.Int("workers", 0, "override the simulated cluster size for the training-backed experiments (0 = scale default)")
		csvDir    = fs.String("csv", "", "directory to write CSV series into")
		pipeline  = fs.Bool("pipeline", false, "run the MD-GAN competitors of the training-backed experiments through the pipelined engine (one-iteration parameter staleness) instead of strict Algorithm 1")
		listKerns = fs.Bool("list-kernels", false, "print the GEMM kernel tiers this host can force (one per line, see MDGAN_GEMM_KERNEL) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	if *listKerns {
		for _, k := range tensor.GemmKernels() {
			fmt.Fprintln(stdout, k)
		}
		return nil
	}

	sc := mdgan.QuickScale
	if *scale == "full" {
		sc = mdgan.FullScale
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	sc.Pipeline = *pipeline
	want := func(name string) bool { return *only == "" || *only == name }
	// emitCurves prints one training-backed figure and, under -csv,
	// writes its series to <csv>/<name>.csv.
	emitCurves := func(title, name string, curves []mdgan.Curve) error {
		fmt.Fprint(stdout, mdgan.FormatCurves(title, curves))
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(mdgan.FormatCurvesCSV(curves)), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", path)
		return nil
	}

	if want("table2") {
		mnist, cifar := mdgan.PaperMNISTComplexity(), mdgan.PaperCIFARComplexity()
		mnist.B, mnist.I = 10, 50000
		cifar.B, cifar.I = 10, 50000
		fmt.Fprint(stdout, mdgan.FormatTableII("MNIST MLP (paper counts)", mnist))
		fmt.Fprint(stdout, mdgan.FormatTableII("CIFAR10 CNN (paper counts)", cifar))
	}
	if want("table3") {
		fmt.Fprint(stdout, mdgan.TableIIIFormulas())
	}
	if want("table4") {
		fmt.Fprint(stdout, mdgan.FormatTableIV(mdgan.ComputeTableIV(mdgan.PaperCIFARComplexity(), []int{10, 100})))
	}
	if want("fig2") {
		batches := []int{1, 10, 100, 1000, 10000}
		for _, panel := range []struct {
			name string
			p    mdgan.ComplexityParams
		}{
			{"mnist", mdgan.PaperMNISTComplexity()},
			{"cifar", mdgan.PaperCIFARComplexity()},
		} {
			if *workers > 0 {
				panel.p.N = *workers
			}
			fmt.Fprint(stdout, mdgan.FormatFig2(panel.name, panel.p, mdgan.ComputeFig2(panel.p, batches)))
		}
	}
	if want("fig3") {
		for _, panel := range []mdgan.Fig3Panel{mdgan.Fig3MNISTMLP, mdgan.Fig3MNISTCNN, mdgan.Fig3CIFARCNN} {
			start := time.Now()
			curves, err := mdgan.RunFig3(panel, sc)
			if err != nil {
				return err
			}
			title := fmt.Sprintf("Figure 3 panel %s (%v)", panel, time.Since(start).Round(time.Second))
			if err := emitCurves(title, "fig3-"+strings.ReplaceAll(string(panel), "/", "-"), curves); err != nil {
				return err
			}
		}
	}
	if want("fig4") {
		// Figure 4 trains to convergence at every point, so quick scale
		// caps the axis at 50 workers; -scale full runs the whole sweep
		// (the 100–500 tail is otherwise covered by the per-iteration
		// BenchmarkMDGANIterationK rows).
		ns := mdgan.WorkerSweep
		if *scale != "full" {
			var capped []int
			for _, n := range ns {
				if n <= 50 {
					capped = append(capped, n)
				}
			}
			if len(capped) < len(ns) {
				log.Printf("fig4: quick scale caps the worker axis at 50 (dropped %v); use -scale full for the whole sweep", ns[len(capped):])
			}
			ns = capped
		}
		rows, err := mdgan.RunFig4(ns, sc)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, mdgan.FormatFig4(rows))
	}
	if want("fig5") {
		curves, err := mdgan.RunFig5(mdgan.Fig3MNISTMLP, sc)
		if err != nil {
			return err
		}
		if err := emitCurves("Figure 5: fault tolerance (MNIST MLP)", "fig5", curves); err != nil {
			return err
		}
	}
	if want("fig6") {
		curves, err := mdgan.RunFig6(sc)
		if err != nil {
			return err
		}
		if err := emitCurves("Figure 6: faces (CelebA stand-in)", "fig6", curves); err != nil {
			return err
		}
	}
	return nil
}
