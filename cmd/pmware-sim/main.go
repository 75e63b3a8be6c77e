// Command pmware-sim runs the paper's deployment study (Section 4): 16
// simulated participants carry the PMWare mobile service (packaged with the
// life-logging app) plus the PlaceADs connected application for two weeks,
// and the study reports discovery counts, tagging, correct/merged/divided
// rates, and the PlaceADs like:dislike ratio — next to the paper's numbers.
//
// Usage:
//
//	pmware-sim [-participants 16] [-days 14] [-seed 2014] [-http]
//
// With -http the entire study runs through a real loopback HTTP cloud
// instance (registration, GCA offload, profile sync, geolocation) instead of
// the in-process adapter.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"

	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/study"
	"repro/internal/viz"
	"repro/internal/world"
)

func main() {
	participants := flag.Int("participants", 16, "number of participants")
	days := flag.Int("days", 14, "study duration in days")
	seed := flag.Int64("seed", 2014, "master random seed")
	useHTTP := flag.Bool("http", false, "run the cloud instance over loopback HTTP")
	social := flag.Bool("social", false, "enable Bluetooth social discovery between participants")
	showMap := flag.Bool("map", false, "render an ASCII map of all discovered places (Figure 5b)")
	flag.Parse()

	cfg := study.DefaultConfig()
	cfg.Participants = *participants
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.Social = *social

	if *useHTTP {
		// Build the same world the study will generate, for the cell DB.
		w := world.Generate(cfg.World, rand.New(rand.NewSource(cfg.Seed)))
		server := cloud.NewServer(cloud.NewStore(nil), cloud.WithCellDatabase(cloud.NewCellDatabase(w, 150)))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		go func() {
			if err := http.Serve(ln, server.Handler()); err != nil {
				log.Printf("cloud server: %v", err)
			}
		}()
		cfg.CloudBaseURL = "http://" + ln.Addr().String()
		log.Printf("cloud instance on %s", cfg.CloudBaseURL)
	}

	res, err := study.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := study.WriteReport(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *showMap {
		var centers []geo.LatLng
		for _, pr := range res.Participants {
			centers = append(centers, pr.PlaceCenters...)
		}
		m, skipped := viz.PlacesMap(res.World, centers, 100, 36)
		fmt.Printf("\nall places discovered during the study (Figure 5b); %s, %d not geolocated:\n", m.Summary(), skipped)
		if err := m.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
