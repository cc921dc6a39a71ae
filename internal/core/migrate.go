package core

import (
	"cvm/internal/trace"
)

// Thread migration (Config.Migrate): the controller watches each
// thread's remote-event affinity — which node its page fetches and lock
// grants come from — and, at a barrier release, re-homes a thread whose
// traffic is dominated by one other node. The mechanics ride the
// adaptation epoch machinery in adapt.go:
//
//   - Affinity counters accumulate in thread context (remoteFault,
//     fullFetchFault, handleLockGrant) and ship to the controller on
//     barrier arrivals, piggybacked with the page observations.
//   - Orders are issued by decideMigrations at a barrier completion and
//     applied at the source node before its release wakes anyone: the
//     thread is unhooked from the barrier's waiter list and shipped as a
//     ClassMigrate message. Its sim.Task is re-homed onto the
//     destination's processor (sim.Engine.Migrate) when the message
//     delivers, and only then woken.
//   - Residency counts travel on the same release, so every node knows
//     its new expected barrier population before any thread resumes.
//     The migrate message takes one extra network hop beyond the
//     release fan-out (manager → source → destination), so the
//     destination's residency is always updated before the migrant can
//     arrive — threads already there simply wait at the next barrier
//     until the migrant joins them.
//
// Threads that ever synchronize through LocalBarrier are pinned: their
// correctness depends on co-location, which migration would silently
// break. Applications additionally opt in per-app (see
// apps.Spec.Migratable); address-based node affinity (NodeID()-derived
// layouts) is not detectable here.

// decideMigrations scans threads in gid order and emits at most
// MigrateMaxPerEpoch re-homing orders. Controller residency, homes, and
// cooldowns update immediately so later candidates in the same epoch
// see the post-order state.
func (ctl *adaptController) decideMigrations() []migOrder {
	tune := ctl.tune
	var orders []migOrder
	capacity := int32(tune.NodeCapacityFactor * ctl.sys.cfg.ThreadsPerNode)
	for gid := range ctl.aff {
		if len(orders) >= tune.MigrateMaxPerEpoch {
			break
		}
		if ctl.pinned[gid] || ctl.cooldownUntil[gid] > ctl.epoch {
			continue
		}
		acc := ctl.aff[gid]
		if acc == nil {
			continue
		}
		var total, bestV int64
		best := -1
		for node, v := range acc {
			total += v
			if v > bestV { // strict: first maximum wins, deterministically
				bestV = v
				best = node
			}
		}
		home := ctl.homes[gid]
		if best < 0 || int32(best) == home ||
			total < int64(tune.MigrateMinEvents) ||
			bestV*100 < int64(tune.MigrateDominancePct)*total ||
			ctl.resident[best] >= capacity {
			continue
		}
		orders = append(orders, migOrder{
			gid: gid, from: home, to: int32(best), epoch: ctl.epoch,
		})
		ctl.resident[home]--
		ctl.resident[best]++
		ctl.homes[gid] = int32(best)
		ctl.cooldownUntil[gid] = ctl.epoch + int32(tune.MigrateCooldown)
		for i := range acc {
			acc[i] = 0
		}
	}
	return orders
}

// migrateOut ships one thread away from this node (engine context,
// during applyAdaptRelease — strictly before releaseBarrier wakes
// anyone). The thread is blocked at barrier barrierID; it is removed
// from the waiter list so the local release cannot wake it, and resumes
// on the destination when the migrate message delivers.
func (n *node) migrateOut(barrierID int, o *migOrder) {
	sys := n.sys
	th := sys.thread(o.gid)
	if th == nil || th.node != n {
		return
	}
	b := n.barrierAt(barrierID)
	found := false
	for i, w := range b.waiters {
		if w == th {
			b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return
	}
	for i, r := range n.residents {
		if r == th {
			n.residents = append(n.residents[:i], n.residents[i+1:]...)
			break
		}
	}
	if tr := sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: n.proc.LocalNow(), Kind: trace.KindMigrateStart,
			Node: int32(n.id), Thread: int32(th.gid), Peer: o.to, Aux: int64(o.epoch)})
	}
	dest := sys.nodes[o.to]
	epoch := o.epoch
	sys.sendFromHandler(NodeID(n.id), NodeID(dest.id),
		ClassMigrate, sys.adapt.tune.MigrateBytes, func() {
			dest.receiveMigrant(th, int32(n.id), epoch)
		})
}

// receiveMigrant installs a migrated thread at its destination (engine
// context): the task is re-homed onto this node's processor, the thread
// re-pointed, and only then woken — it resumes inside Thread.Barrier's
// post-block path as a local thread of this node.
func (n *node) receiveMigrant(th *Thread, from int32, epoch int32) {
	n.sys.eng.Migrate(th.task, n.proc)
	th.node = n
	n.residents = append(n.residents, th)
	n.stats.Migrations++
	if tr := n.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: n.proc.LocalNow(), Kind: trace.KindMigrateArrive,
			Node: int32(n.id), Thread: int32(th.gid), Peer: from, Aux: int64(epoch)})
	}
	n.sys.eng.Wake(th.task)
}
