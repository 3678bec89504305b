// Crawler: the paper's "server-friendly web crawling" application (§1.1,
// scenario 3). A web server publishes a small static signature next to each
// resource; a crawler holding yesterday's copy downloads the signature,
// works out locally which blocks it already has, and issues byte-range
// requests for the rest — no per-client computation on the server at all.
//
//	go run ./examples/crawler
package main

import (
	"context"
	"fmt"
	"log"

	"msync/internal/corpus"
	"msync/internal/pubsig"
)

func main() {
	// A small site that changes a little every night.
	web := corpus.NewWebCollection(corpus.DefaultWebProfile(0.06), 7)
	yesterday := web.Version(3).Map()
	today := web.Version(4).Map()

	var fullBytes, sigBytes, rangeBytes, pages, changed int
	for path, cur := range today {
		pages++
		old := yesterday[path]
		if string(old) == string(cur) {
			// A real crawler would skip via HTTP validators; the signature
			// fetch below would also reveal it. Count the content as seen.
			continue
		}
		changed++
		fullBytes += len(cur)

		// Server side, once per published version:
		sig := pubsig.Build(cur, pubsig.DefaultBlockSize)
		sigBytes += len(sig)

		// Crawler side: plan locally, fetch only missing ranges.
		plan, err := pubsig.NewPlan(old, sig)
		if err != nil {
			log.Fatal(err)
		}
		got, err := plan.Reconstruct(context.Background(), old, func(_ context.Context, off, l int) ([]byte, error) {
			rangeBytes += l
			return cur[off : off+l], nil // stands in for an HTTP range request
		})
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if string(got) != string(cur) {
			log.Fatalf("%s: reconstruction mismatch", path)
		}
	}

	fmt.Printf("recrawled %d pages, %d changed since yesterday\n\n", pages, changed)
	fmt.Printf("%-34s %10d bytes\n", "naive re-download of changed pages", fullBytes)
	fmt.Printf("%-34s %10d bytes\n", "signatures fetched", sigBytes)
	fmt.Printf("%-34s %10d bytes\n", "ranges fetched", rangeBytes)
	fmt.Printf("%-34s %10d bytes (%.1fx less)\n", "signature-based total",
		sigBytes+rangeBytes, float64(fullBytes)/float64(sigBytes+rangeBytes))
	fmt.Println("\nthe server computed nothing per crawler — it only served static")
	fmt.Println("signature files and byte ranges, the paper's requirement for")
	fmt.Println("synchronization support that web servers could realistically adopt.")
}
