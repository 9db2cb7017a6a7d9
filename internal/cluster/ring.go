// Package cluster turns a set of itagd processes into one hash-partitioned
// service. It generalizes the in-process key routing of store.Sharded — the
// FNV-1a hash of a key's first path segment — into a consistent-hash ring
// over named slots, each led by one node. Leaders replicate their WAL to
// followers by shipping the same CRC-framed segment bytes the store writes
// to disk (internal/store's ReplTail/ApplyReplicated/InstallSnapshot), and
// followers serve opt-in stale reads from their replica stores.
//
// Data placement follows the entity-group model: a node only mints IDs
// (projects, providers, taggers) that hash back to itself, so every record
// a request can reach through an ID in its URL lives on the node that owns
// that ID. Participants of a project must be registered through the
// project's owner node — the client SDK's ClusterClient routes that way.
package cluster

import (
	"sort"
	"strconv"
	"strings"

	"itag/internal/route"
)

// The ring itself lives in internal/route, where store.Sharded and the
// client SDK use the same placement code; these names keep the cluster's
// API spelled in its own package.

// Member is one slot of the ring and the address of the node leading it.
type Member = route.Member

// Ring is the cluster's routing table.
type Ring = route.Ring

// NewRing builds a version-1 ring over the members.
func NewRing(members []Member) (*Ring, error) { return route.NewRing(members) }

// contentKey returns a canonical serialization of the ring's routing
// content — vnode count plus slot→addr assignments sorted by slot,
// independent of member order and version. Rings with equal keys route
// identically; installRing uses the key to detect and deterministically
// resolve same-version rings with diverging content.
func contentKey(r *Ring) string {
	ms := append([]Member(nil), r.Members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Slot < ms[j].Slot })
	var b strings.Builder
	b.WriteString(strconv.Itoa(r.VNodes))
	for _, m := range ms {
		b.WriteByte('|')
		b.WriteString(m.Slot)
		b.WriteByte('=')
		b.WriteString(m.Addr)
	}
	return b.String()
}
