// Command xqgen emits one of the synthetic benchmark data sets as XML on
// stdout, so the workloads can be inspected or loaded into other tools.
//
// Usage:
//
//	xqgen -dataset pers                  # base size (≈ 5k nodes)
//	xqgen -dataset mbench -scale 0.1     # smaller variant
//	xqgen -dataset dblp -fold 3 > d.xml  # folded ×3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"sjos/internal/datagen"
	"sjos/internal/xmltree"
)

func main() {
	dataset := flag.String("dataset", "", "data set: mbench, dblp or pers")
	scale := flag.Float64("scale", 1, "size multiplier")
	fold := flag.Int("fold", 1, "folding factor")
	seed := flag.Int64("seed", 0, "generator seed")
	format := flag.String("format", "xml", "output format: xml or image (binary, for sjos.CorpusBuilder.AddImage)")
	flag.Parse()
	if *dataset == "" {
		flag.Usage()
		os.Exit(2)
	}
	doc, err := datagen.Generate(datagen.Config{Name: *dataset, Scale: *scale, Seed: *seed})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xqgen: %v\n", err)
		os.Exit(1)
	}
	doc = xmltree.Fold(doc, *fold)
	w := bufio.NewWriter(os.Stdout)
	switch *format {
	case "xml":
		err = xmltree.Serialize(doc, w)
	case "image":
		err = xmltree.WriteImage(doc, w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xqgen: %v\n", err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "xqgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "xqgen: wrote %d element nodes\n", doc.NumNodes())
}
