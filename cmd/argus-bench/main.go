// Command argus-bench regenerates every table and figure of the paper's
// evaluation (§VIII Table I, §IX-A message overhead, Fig 6a–6h) and prints
// paper-style rows next to the values the paper reports.
//
// Usage:
//
//	argus-bench -list
//	argus-bench -exp fig6e
//	argus-bench -exp table1,msgsize,fig6b -markdown
//	argus-bench -exp all [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"argus/internal/exp"
)

func main() {
	var (
		which = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		quick = flag.Bool("quick", false, "smaller sweeps / fewer iterations")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		md    = flag.Bool("markdown", false, "render results as Markdown tables")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := exp.IDs()
	if *which != "all" {
		ids = nil
		for _, id := range strings.Split(*which, ",") {
			id = strings.TrimSpace(id)
			if _, ok := exp.Registry[id]; !ok {
				fmt.Fprintf(os.Stderr, "argus-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	failed := 0
	for _, id := range ids {
		start := time.Now()
		res, err := exp.Registry[id](*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "argus-bench: %s failed: %v\n", id, err)
			failed++
			continue
		}
		if *md {
			fmt.Println(res.Markdown())
		} else {
			fmt.Println(res)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
