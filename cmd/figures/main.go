// Command figures regenerates the paper's evaluation figures: every panel
// of Figure 6 (random multicast destinations) and Figure 7 (localized
// destinations), each as a CSV file plus an ASCII rendering, and a final
// model-vs-simulation agreement table.
//
// Structural figures: -ascii additionally prints the Fig. 2 topology and
// Fig. 3 broadcast walk of a 16-node Quarc as ASCII diagrams.
//
// Example:
//
//	figures -out results/ -quick
//	figures -panel fig6-a
//	figures -ascii
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"quarc/noc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	out := flag.String("out", "", "directory for CSV output (default: print only)")
	quick := flag.Bool("quick", false, "shorter simulations (coarser confidence intervals)")
	panel := flag.String("panel", "", "run a single panel by ID (e.g. fig6-a)")
	points := flag.Int("points", 0, "rate samples per panel (default 8)")
	parallel := flag.Int("parallel", 1, "rate points of a panel to evaluate concurrently (0 = GOMAXPROCS)")
	ascii := flag.Bool("ascii", false, "print the structural figures (Fig. 2 topology, Fig. 3 broadcast) and exit")
	sat := flag.Bool("sat", false, "print the saturation-rate study and exit")
	flag.Parse()

	if *sat {
		rows, err := noc.SaturationStudy(
			[]int{16, 32, 64, 128}, []int{16, 32, 48, 64}, []float64{0, 0.03, 0.05, 0.10}, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("model saturation rate by configuration (localized multicast set):")
		fmt.Print(noc.SatTable(rows))
		return
	}

	if *ascii {
		printStructuralFigures()
		return
	}

	effort := noc.DefaultEffort()
	if *quick {
		effort = noc.QuickEffort()
	}

	panels := noc.FigurePanels()
	if *panel != "" {
		p, err := noc.PanelByID(*panel)
		if err != nil {
			log.Fatal(err)
		}
		panels = []noc.Panel{p}
	}

	for i := range panels {
		if *points > 0 {
			panels[i].Points = *points
		}
		fmt.Printf("running %s (N=%d, M=%d flits, alpha=%.0f%%)...\n",
			panels[i].ID, panels[i].N, panels[i].MsgLen, panels[i].Alpha*100)
	}
	results, err := noc.RunFigurePanels(panels, effort, *parallel)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		fmt.Print(res.AsciiPlot(72, 18))
		fmt.Println()
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*out, res.Panel().ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := res.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if *out != "" {
		path := filepath.Join(*out, "figures.json")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := noc.WriteFiguresJSON(f, results); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n\n", path)
	}
	fmt.Println("model-vs-simulation agreement (relative error over stable points):")
	fmt.Print(noc.FiguresSummary(results))
}

// printStructuralFigures renders the paper's structural figures as ASCII:
// the Quarc topology (Fig. 2a) and the broadcast pattern from node 0 in a
// 16-node network (Fig. 3).
func printStructuralFigures() {
	s, err := noc.Spec{Topology: "quarc", N: 16, Alpha: 1, Pattern: "broadcast"}.Scenario()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Fig. 2a — Quarc topology, N=16 (rim links + doubled cross links):")
	fmt.Println()
	fmt.Println("        0  1  2  3")
	fmt.Println("     15 +--+--+--+ 4     every node i also has two parallel")
	fmt.Println("      | .  .  .  . |     cross links to node (i+8) mod 16;")
	fmt.Println("     14.           .5    rim links are bidirectional pairs")
	fmt.Println("      |             |    (one unidirectional channel each")
	fmt.Println("     13.           .6    way) with 2 virtual channels.")
	fmt.Println("      | .  .  .  . |")
	fmt.Println("     12 +--+--+--+ 7")
	fmt.Println("       11 10  9  8")
	fmt.Println()

	fmt.Println("Fig. 3 — broadcast from node 0 (branch endpoints 4, 5, 11, 12):")
	fmt.Println()
	branches, err := s.Branches(0)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range branches {
		walk := []string{"0"}
		for _, node := range b.Walk {
			walk = append(walk, fmt.Sprint(node))
		}
		fmt.Printf("  port %-2s: %s  (receivers %v)\n",
			b.PortName, strings.Join(walk, " -> "), b.Targets)
	}
	fmt.Println()
	fmt.Println("Every node other than the source is covered exactly once; each branch")
	fmt.Println("is tagged broadcast and ends at the last node of its quadrant, as in")
	fmt.Println("Sec. 3.3.2 of the paper.")
}
