package vnet

import (
	"errors"
	"fmt"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
)

// This file is the overlay's transactional reconfiguration surface: a
// typed Plan of steps (links, forwarding rules, VM migrations) applied
// atomically-ish — every step is idempotent, and a failure rolls the
// already-completed steps back in reverse order, so a half-applied plan
// never strands the overlay between two topologies.

// StepOp enumerates the overlay reconfiguration primitives.
type StepOp int

const (
	// OpAddLink dials a direct link between member daemons A and B.
	OpAddLink StepOp = iota
	// OpRemoveLink tears the direct A-B link down.
	OpRemoveLink
	// OpAddRule installs a forwarding rule on daemon Host: frames for MAC
	// leave via the link to NextHop.
	OpAddRule
	// OpRemoveRule deletes Host's rule for MAC.
	OpRemoveRule
	// OpMigrate moves the VM with MAC from daemon A to daemon B via the
	// plan's Migrator.
	OpMigrate
)

// String names the operation.
func (op StepOp) String() string {
	switch op {
	case OpAddLink:
		return "add-link"
	case OpRemoveLink:
		return "remove-link"
	case OpAddRule:
		return "add-rule"
	case OpRemoveRule:
		return "remove-rule"
	case OpMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Step is one reconfiguration action in daemon-name/MAC terms.
type Step struct {
	Op      StepOp
	A, B    string       // link endpoints; migration source and target
	Host    string       // rule site
	NextHop string       // rule next hop
	MAC     ethernet.MAC // rule destination or migrating VM
}

// String renders the step for logs.
func (s Step) String() string {
	switch s.Op {
	case OpAddLink, OpRemoveLink:
		return fmt.Sprintf("%s %s<->%s", s.Op, s.A, s.B)
	case OpAddRule:
		return fmt.Sprintf("%s at %s: %s -> %s", s.Op, s.Host, s.MAC, s.NextHop)
	case OpRemoveRule:
		return fmt.Sprintf("%s at %s: %s", s.Op, s.Host, s.MAC)
	case OpMigrate:
		return fmt.Sprintf("%s %s: %s -> %s", s.Op, s.MAC, s.A, s.B)
	default:
		return s.Op.String()
	}
}

// Plan is an ordered list of steps; Apply executes them in order.
type Plan struct {
	Steps []Step
	// Trace is the originating controller cycle's trace context. When
	// valid, Apply records one span per executed step on the flight
	// recorder of the daemon the step touches, so a mesh-wide collector
	// can reassemble which nodes an adaptation reconfigured and how long
	// each hop took. The zero value records nothing extra.
	Trace obs.TraceContext
}

// Migrator executes VM attachment moves on behalf of Overlay.Apply. The
// overlay cannot move VMs itself — it only sees MAC-addressed ports — so
// whoever owns the VM objects (an example, a benchmark scenario, a test)
// supplies the mechanism. Migrate must be reversible: Apply calls it with
// the endpoints swapped to roll a completed migration back.
type Migrator interface {
	Migrate(mac ethernet.MAC, fromHost, toHost string) error
}

// MigratorFunc adapts a function to the Migrator interface.
type MigratorFunc func(mac ethernet.MAC, fromHost, toHost string) error

// Migrate implements Migrator.
func (f MigratorFunc) Migrate(mac ethernet.MAC, fromHost, toHost string) error {
	return f(mac, fromHost, toHost)
}

// StepOutcome classifies what Apply did with one step.
type StepOutcome string

const (
	// StepApplied: the step executed and changed state.
	StepApplied StepOutcome = "applied"
	// StepSkipped: the step was already satisfied (idempotence).
	StepSkipped StepOutcome = "skipped"
	// StepFailed: the step errored, aborting the plan.
	StepFailed StepOutcome = "failed"
	// StepRolledBack: the step had been applied, then was undone after a
	// later step failed.
	StepRolledBack StepOutcome = "rolled-back"
	// StepRollbackFailed: the step's undo errored; its change may stand.
	StepRollbackFailed StepOutcome = "rollback-failed"
	// StepNotReached: a later step never ran because an earlier one failed.
	StepNotReached StepOutcome = "not-reached"
)

// StepResult is one step's fate — the apply layer's flight-recorder
// provenance, letting an operator reconstruct exactly which part of a
// plan took effect.
type StepResult struct {
	Step    Step        `json:"-"`
	Desc    string      `json:"step"`
	Outcome StepOutcome `json:"outcome"`
	Err     string      `json:"error,omitempty"`
}

// ApplyResult reports what a plan application actually did.
type ApplyResult struct {
	Applied    int // steps that changed state
	Skipped    int // steps already satisfied (idempotence)
	RolledBack int // undo actions executed after a failure
	// Steps records every step's individual outcome, in plan order.
	Steps []StepResult
}

// Apply executes the plan transactionally. Already-satisfied steps are
// skipped (idempotence), every executed step records its inverse, and the
// first failing step triggers a best-effort rollback of the completed
// steps in reverse order before the error is returned; a failed undo's
// error joins it. A plan containing migration steps requires a non-nil
// Migrator; this is validated up front so a nil Migrator can never strand
// a half-applied plan.
func (o *Overlay) Apply(plan Plan, mig Migrator) (ApplyResult, error) {
	var res ApplyResult
	for _, s := range plan.Steps {
		if s.Op == OpMigrate && mig == nil {
			return res, fmt.Errorf("vnet: plan migrates %s but no Migrator given", s.MAC)
		}
	}
	res.Steps = make([]StepResult, len(plan.Steps))
	for i, s := range plan.Steps {
		res.Steps[i] = StepResult{Step: s, Desc: s.String(), Outcome: StepNotReached}
	}
	type undoEntry struct {
		step int // index into res.Steps, to mark the step rolled back
		fn   func() error
	}
	var undos []undoEntry
	rollback := func() error {
		var errs []error
		for i := len(undos) - 1; i >= 0; i-- {
			sr := &res.Steps[undos[i].step]
			sr.Outcome = StepRolledBack
			res.RolledBack++
			if err := undos[i].fn(); err != nil {
				sr.Outcome, sr.Err = StepRollbackFailed, err.Error()
				errs = append(errs, fmt.Errorf("vnet: rollback incomplete: undo %s: %w", sr.Desc, err))
			}
		}
		return errors.Join(errs...)
	}
	for i, s := range plan.Steps {
		sp := o.stepSpan(plan.Trace, s)
		changed, undo, err := o.applyStep(s, mig)
		if err != nil {
			res.Steps[i].Outcome = StepFailed
			res.Steps[i].Err = err.Error()
			endStepSpan(sp, StepFailed, err)
			return res, errors.Join(fmt.Errorf("vnet: apply %s: %w", s, err), rollback())
		}
		if !changed {
			res.Steps[i].Outcome = StepSkipped
			res.Skipped++
			endStepSpan(sp, StepSkipped, nil)
			continue
		}
		res.Steps[i].Outcome = StepApplied
		res.Applied++
		endStepSpan(sp, StepApplied, nil)
		if undo != nil {
			undos = append(undos, undoEntry{step: i, fn: undo})
		}
	}
	return res, nil
}

// stepSpan opens the per-step apply span on the flight recorder of the
// daemon the step touches, nested under the plan's (cross-node) trace
// context. Without a trace, or when the step's daemon is unknown or has
// no recorder, it returns a nil no-op span.
func (o *Overlay) stepSpan(ctx obs.TraceContext, s Step) *obs.Span {
	if !ctx.Valid() {
		return nil
	}
	d := o.stepDaemon(s)
	if d == nil {
		return nil
	}
	sp := d.Flight().StartSpanCtx(ctx, "vnet", "apply", "step "+s.Op.String())
	sp.SetHost(d.Name())
	sp.SetAttr("step", s.String())
	return sp
}

func endStepSpan(sp *obs.Span, outcome StepOutcome, err error) {
	if sp == nil {
		return
	}
	sp.SetAttr("outcome", string(outcome))
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
}

// stepDaemon picks the member daemon a step's span should be recorded
// on: the site whose state the step primarily mutates.
func (o *Overlay) stepDaemon(s Step) *Daemon {
	var n *Node
	switch s.Op {
	case OpAddLink, OpRemoveLink:
		n = o.Member(s.A)
	case OpAddRule, OpRemoveRule:
		n = o.Member(s.Host)
	case OpMigrate:
		n = o.Member(s.B) // the receiving host ends up owning the VM
	}
	if n == nil {
		return nil
	}
	return n.Daemon
}

// applyStep executes one step, returning whether it changed anything and
// the inverse action for rollback.
func (o *Overlay) applyStep(s Step, mig Migrator) (changed bool, undo func() error, err error) {
	switch s.Op {
	case OpAddLink:
		na, nb := o.Node(s.A), o.Node(s.B)
		if na == nil || nb == nil {
			return false, nil, fmt.Errorf("unknown node %s or %s", s.A, s.B)
		}
		if _, ok := na.Daemon.Link(s.B); ok {
			return false, nil, nil
		}
		if _, ok := nb.Daemon.Link(s.A); ok {
			return false, nil, nil
		}
		if err := o.ConnectPair(s.A, s.B); err != nil {
			return false, nil, err
		}
		return true, func() error { _, err := o.DisconnectPair(s.A, s.B); return err }, nil

	case OpRemoveLink:
		if o.ProxyNode(s.A) != nil || o.ProxyNode(s.B) != nil {
			return false, nil, fmt.Errorf("refusing to remove a proxy link")
		}
		had, err := o.DisconnectPair(s.A, s.B)
		if err != nil {
			return false, nil, err
		}
		if !had {
			return false, nil, nil
		}
		return true, func() error { return o.ConnectPair(s.A, s.B) }, nil

	case OpAddRule:
		node := o.Node(s.Host)
		if node == nil {
			return false, nil, fmt.Errorf("unknown host %q", s.Host)
		}
		prev, had := node.Daemon.Rules()[s.MAC]
		if had && prev == s.NextHop {
			return false, nil, nil
		}
		node.Daemon.AddRule(s.MAC, s.NextHop)
		if had {
			return true, func() error { node.Daemon.AddRule(s.MAC, prev); return nil }, nil
		}
		return true, func() error { node.Daemon.RemoveRule(s.MAC); return nil }, nil

	case OpRemoveRule:
		node := o.Node(s.Host)
		if node == nil {
			return false, nil, fmt.Errorf("unknown host %q", s.Host)
		}
		prev, had := node.Daemon.Rules()[s.MAC]
		if !had {
			return false, nil, nil
		}
		node.Daemon.RemoveRule(s.MAC)
		return true, func() error { node.Daemon.AddRule(s.MAC, prev); return nil }, nil

	case OpMigrate:
		if o.Node(s.B) == nil {
			return false, nil, fmt.Errorf("unknown migration target %q", s.B)
		}
		if err := mig.Migrate(s.MAC, s.A, s.B); err != nil {
			return false, nil, err
		}
		return true, func() error { return mig.Migrate(s.MAC, s.B, s.A) }, nil

	default:
		return false, nil, fmt.Errorf("unknown op %v", s.Op)
	}
}
