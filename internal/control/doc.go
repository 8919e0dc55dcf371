// Package control closes the paper's adaptation loop: it periodically
// senses the running system (the Proxy's VTTIF traffic matrix and Wren
// path measurements, or a remote Wren SOAP service), decides on a better
// virtual-network configuration with the VADAPT heuristics, and applies
// the difference to the live VNET overlay as a transactional plan.
//
// The three phases are pluggable:
//
//   - Sense: a ProblemSource builds a Snapshot (a vadapt.Problem plus the
//     naming context linking VM ids to MACs and host ids to daemon names).
//     ViewSource reads a vnet.GlobalView; SOAPSource polls Wren services
//     over SOAP; StaticSource replays a fixed snapshot. A Fusion hook
//     kicks active probing for pairs with nothing fresh; HubProber is a
//     hub daemon's budgeted implementation, which stores its active
//     records in the hub view's store beside the passive ones.
//   - Decide: the greedy heuristic (optionally refined by simulated
//     annealing) proposes a target configuration; vadapt.Diff turns the
//     current->target difference into typed steps, and a vadapt.Gate
//     provides cost/benefit hysteresis so the loop does not oscillate on
//     marginal improvements.
//   - Act: an Applier executes the translated vnet.Plan — OverlayApplier
//     reconfigures a live overlay transactionally (with rollback on
//     partial failure), LogApplier dry-runs for observe-only deployments.
//
// RunCycle is one sense -> decide -> apply pass. The loop around it is
// Tick: a cycle per tick, except within 2 × Config.Interval of a tick
// that applied a plan — a hold-down, counted in control_cycles_held_total,
// so the effect of one move is observed before the next is made. Start
// runs Tick on a ticker (vnetd -controller); vadaptctl -live calls it in
// its own counted loop. Only callers that measure or demonstrate a single
// cycle call RunCycle directly.
//
// A path measurement has one shape on every route into the sense phase:
//
//	wren.Monitor.Scan -> PathObservation.Record() -> coord.Record
//	  -> { "wren" control report -> vnet.GlobalView.Store (HubProber.Kick too)
//	     | coord.Store -> BuildMap -> published BandwidthMap
//	     | Wren SOAP service }
//	  -> sense.freshest: the freshest At wins
//	  -> PathProvenance
//
// ViewSource and SOAPSource answer every host pair by the same rule: of
// the records with a bandwidth for the demanded direction, across every
// store and the published map, the one observed last; with none, the same
// for the reverse direction; then hub-leg composition where there is a
// hub; then defaults. A tie in At goes to the earlier source (stores,
// then map), and a record stamped after the sense time counts as stamped
// at it. Record.At is the observation time and nothing re-stamps it on
// receipt, so PathProvenance.AgeSec and Fusion.StaleAfter mean the same
// on every route. The shapes that remain each add
// something: estimator.Estimate (bracket and window count — the monitor's
// per-path SIC and the estimator zoo both return it), wren.PathObservation
// (one monitor row, before the bracket is dropped), coord.Record (the path
// record), PathProvenance (what the decision saw: source and age, including
// fallbacks no record backs).
//
// Every cycle is explainable after the fact: Config.Logger writes one
// structured log line per noteworthy cycle, and Config.Flight records
// sense/decide/apply spans plus the gate verdict onto the decision
// flight recorder (internal/obs), all stamped with the cycle's trace ID.
// Controller.DebugState serves the controller's current beliefs — the
// installed paths/rules/links and the last cycle's plan, verdict and
// measurement provenance — as the /debug/state endpoint.
package control
