// Command sdsm-node is the worker process of the distributed
// message-passing deployment: one OS process per rank, connected to a
// coordinator's switch over a loopback socket, exchanging wire-format
// frames (see internal/mpnet).
//
// It is normally spawned by the coordinator (sdsm-run -system pvme
// -backend net -node-bin sdsm-node) with its configuration in the
// SDSM_MP_WORKER environment variable, but can also be pointed at a
// coordinator explicitly:
//
//	sdsm-node -network unix -addr /tmp/sdsm123/mp.sock -rank 2
//
// With -pool it instead becomes a long-lived DSM-as-a-service node
// daemon (internal/svc): it attaches a pool of -slots rank slots to a
// service coordinator and executes dispatched jobs until the
// coordinator goes away, keeping node images and protocol logs
// (harness's idle list of stores) and wire buffers warm across jobs:
//
//	sdsm-node -pool -network unix -addr /tmp/sdsm456/switch.sock -slots 8
package main

import (
	"flag"
	"fmt"
	"os"

	"sdsm/internal/mpnet"
	"sdsm/internal/svc"
)

func main() {
	mpnet.MaybeWorker() // coordinator-spawned path; does not return if set

	var (
		network = flag.String("network", "unix", "coordinator socket network: unix, tcp")
		addr    = flag.String("addr", "", "coordinator socket address")
		rank    = flag.Int("rank", -1, "this worker's rank")
		pool    = flag.Bool("pool", false, "run as a long-lived warm-pool daemon attached to a service coordinator")
		slots   = flag.Int("slots", 8, "warm pool slots to offer in -pool mode")
	)
	flag.Parse()
	if *pool {
		if *addr == "" {
			fmt.Fprintln(os.Stderr, "sdsm-node: -pool requires -addr (the service coordinator's socket)")
			os.Exit(2)
		}
		if err := svc.RunPoolDaemon(*network, *addr, *slots, nil); err != nil {
			fmt.Fprintf(os.Stderr, "sdsm-node: pool daemon: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *addr == "" || *rank < 0 {
		fmt.Fprintln(os.Stderr, "sdsm-node: -addr and -rank are required (or spawn via the coordinator)")
		os.Exit(2)
	}
	if err := mpnet.RunWorker(*network, *addr, *rank); err != nil {
		fmt.Fprintf(os.Stderr, "sdsm-node: rank %d: %v\n", *rank, err)
		os.Exit(1)
	}
}
