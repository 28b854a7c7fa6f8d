// Package scheduler implements the paper's two baseline cluster
// configurations as condor.Policy implementations:
//
//   - Exclusive ("MC" = MPSS + Condor): whole-device allocation. Each Xeon
//     Phi is dedicated to one job for its lifetime, the prevailing policy
//     the paper argues against (§I, §III).
//
//   - RandomPack ("MCC" = MPSS + Condor + COSMIC): jobs may share devices;
//     the cluster level packs them onto *randomly chosen* devices with no
//     memory awareness at all, relying on COSMIC for node-level memory and
//     thread safety (§V: "they are packed arbitrarily to Xeon Phi
//     coprocessors and COSMIC prevents them from oversubscribing memory
//     and threads"). A job randomly sent to a full device waits at the
//     node, holding its Condor slot — the waste the knapsack avoids.
//
//   - Agnostic: the §III strawman — Condor treats the Phi as an opaque
//     resource, so jobs land anywhere and memory/thread oversubscription
//     occur freely. Used by the oversubscription ablation, never by the
//     paper's main comparisons.
package scheduler

import (
	"fmt"

	"phishare/internal/condor"
	"phishare/internal/rng"
)

// memoryGuard is the node-side admission expression shared by the safe
// policies: a machine accepts a job only if the job's declared memory fits
// the machine's free declared memory, so declared reservations never
// oversubscribe the card.
const memoryGuard = "TARGET." + condor.AttrRequestPhiMemory + " <= MY." + condor.AttrPhiFreeMemory

// Exclusive is the MC policy.
type Exclusive struct{}

// NewExclusive returns the MC (MPSS+Condor) policy.
func NewExclusive() *Exclusive { return &Exclusive{} }

// Name implements condor.Policy.
func (*Exclusive) Name() string { return "MC" }

// MachineRequirements implements condor.Policy: memory must fit and the
// device must be entirely free.
func (*Exclusive) MachineRequirements() string {
	return memoryGuard + " && MY." + condor.AttrPhiFreeDevices + " >= TARGET." + condor.AttrRequestPhiDevices
}

// PrepareJobAd implements condor.Policy: the job asks for a whole device.
func (*Exclusive) PrepareJobAd(q *condor.QueuedJob) {
	q.Ad.MustSetExpr("Requirements",
		"TARGET."+condor.AttrPhiFreeDevices+" >= MY."+condor.AttrRequestPhiDevices)
}

// PreNegotiation implements condor.Policy (no-op).
func (*Exclusive) PreNegotiation(*condor.Pool) {}

// Select implements condor.Policy: first matching machine, the FIFO
// behaviour of plain Condor matchmaking.
func (*Exclusive) Select(_ *condor.Pool, _ *condor.QueuedJob, _ []*condor.Machine) int { return 0 }

// SelectN implements condor.IndexSelector: Select reads no candidate.
func (*Exclusive) SelectN(int) int { return 0 }

// PostNegotiation implements condor.Policy (no-op).
func (*Exclusive) PostNegotiation(*condor.Pool) {}

// RandomPack is the MCC policy.
type RandomPack struct {
	rand *rng.Source
}

// NewRandomPack returns the MCC policy; rand drives the random machine
// choice and must be non-nil for reproducible runs.
func NewRandomPack(rand *rng.Source) *RandomPack {
	if rand == nil {
		panic("scheduler: RandomPack requires a random source")
	}
	return &RandomPack{rand: rand}
}

// Name implements condor.Policy.
func (*RandomPack) Name() string { return "MCC" }

// MachineRequirements implements condor.Policy: accept anything — COSMIC
// handles memory at the node (the host-slot limit is enforced mechanically
// by the pool).
func (*RandomPack) MachineRequirements() string { return "true" }

// PrepareJobAd implements condor.Policy: any machine is acceptable; the
// cluster level is deliberately memory-oblivious.
func (*RandomPack) PrepareJobAd(q *condor.QueuedJob) {
	q.Ad.MustSetExpr("Requirements", "true")
}

// PreNegotiation implements condor.Policy (no-op).
func (*RandomPack) PreNegotiation(*condor.Pool) {}

// Select implements condor.Policy: uniform random choice among matches.
func (r *RandomPack) Select(_ *condor.Pool, _ *condor.QueuedJob, candidates []*condor.Machine) int {
	return r.SelectN(len(candidates))
}

// SelectN implements condor.IndexSelector: the same uniform draw over n
// candidates.
func (r *RandomPack) SelectN(n int) int { return r.rand.Intn(n) }

// PostNegotiation implements condor.Policy (no-op).
func (*RandomPack) PostNegotiation(*condor.Pool) {}

// Agnostic is the Phi-oblivious configuration of §III: no resource guard at
// all. Jobs land on random machines regardless of memory or threads; pair
// it with a COSMIC-less cluster to reproduce oversubscription crashes and
// slowdowns.
type Agnostic struct {
	rand *rng.Source
	// MaxResident caps jobs per device (Condor still has finitely many
	// host slots per node); 0 means 16.
	MaxResident int
}

// NewAgnostic returns the oversubscription-agnostic policy.
func NewAgnostic(rand *rng.Source) *Agnostic {
	if rand == nil {
		panic("scheduler: Agnostic requires a random source")
	}
	return &Agnostic{rand: rand}
}

// Name implements condor.Policy.
func (*Agnostic) Name() string { return "Agnostic" }

// MachineRequirements implements condor.Policy: accept anything up to the
// host-slot cap.
func (a *Agnostic) MachineRequirements() string {
	max := a.MaxResident
	if max == 0 {
		max = 16
	}
	return fmt.Sprintf("MY.%s < %d", condor.AttrResidentJobs, max)
}

// PrepareJobAd implements condor.Policy.
func (*Agnostic) PrepareJobAd(q *condor.QueuedJob) {
	q.Ad.MustSetExpr("Requirements", "true")
}

// PreNegotiation implements condor.Policy (no-op).
func (*Agnostic) PreNegotiation(*condor.Pool) {}

// Select implements condor.Policy.
func (a *Agnostic) Select(_ *condor.Pool, _ *condor.QueuedJob, candidates []*condor.Machine) int {
	return a.SelectN(len(candidates))
}

// SelectN implements condor.IndexSelector: the same uniform draw over n
// candidates.
func (a *Agnostic) SelectN(n int) int { return a.rand.Intn(n) }

// PostNegotiation implements condor.Policy (no-op).
func (*Agnostic) PostNegotiation(*condor.Pool) {}
