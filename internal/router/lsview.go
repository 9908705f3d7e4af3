package router

import (
	"github.com/rtcl/drtp/internal/graph"
	"github.com/rtcl/drtp/internal/proto"
	"github.com/rtcl/drtp/internal/routing"
)

// localLinks returns the IDs of this node's outgoing links.
func (r *Router) localLinks() []graph.LinkID { return r.g.Out(r.cfg.Node) }

// markDirtyLocked schedules a triggered link-state advertisement.
func (r *Router) markDirtyLocked() { r.dirty = true }

// flushAdverts sends a triggered advertisement if local state changed.
func (r *Router) flushAdverts() {
	r.mu.Lock()
	dirty := r.dirty
	r.dirty = false
	r.mu.Unlock()
	if dirty {
		r.advertise()
	}
}

// advertise floods this node's local link summaries.
func (r *Router) advertise() {
	r.mu.Lock()
	r.mySeq++
	update := proto.LSUpdate{Origin: r.cfg.Node, Seq: r.mySeq}
	for _, l := range r.localLinks() {
		a := routing.Advert(r.db, l, r.downNbr[r.g.Link(l).To])
		update.Links = append(update.Links, a)
		// Local view mirrors local truth immediately.
		r.view.Apply(a)
	}
	nbrs := r.g.Neighbors(r.cfg.Node)
	r.mu.Unlock()
	r.tracer.LSUpdate(int(r.cfg.Node), len(update.Links))
	for _, n := range nbrs {
		r.send(n, update)
	}
	for _, m := range r.cfg.Mirrors {
		r.send(m, update)
	}
}

// handleLSUpdate installs fresh updates and re-floods them. An origin
// advertises only its own links, so remote adverts never overwrite this
// node's local truth.
func (r *Router) handleLSUpdate(from graph.NodeID, m proto.LSUpdate) {
	if m.Origin == r.cfg.Node {
		return
	}
	r.mu.Lock()
	if !r.view.Update(m) {
		r.mu.Unlock()
		return
	}
	nbrs := r.g.Neighbors(r.cfg.Node)
	r.mu.Unlock()
	for _, n := range nbrs {
		if n != from {
			r.send(n, m)
		}
	}
}

// routesLocked computes the primary and backup routes for a new
// connection to dst under the current view: the shared routing kernel,
// never crossing a link to a neighbour declared down. The primary is
// empty when none is feasible. Callers must hold r.mu.
func (r *Router) routesLocked(dst graph.NodeID) (graph.Path, []graph.Path) {
	for _, l := range r.localLinks() {
		r.dead[l] = r.downNbr[r.g.Link(l).To]
	}
	return r.view.Routes(r.cfg.Node, dst, r.cfg.Backups, r.dead)
}
