// Package cluster is the old name of host.NewNetwork, kept only for the
// frozen benchmark module; it is deleted when bench/ thaws (ROADMAP).
package cluster

import (
	"sdsm/internal/host"
	"sdsm/internal/model"
)

// New creates the in-process interconnect for every processor of h.
func New(h host.Host, costs model.Costs) *host.Network { return host.NewNetwork(h, costs) }
