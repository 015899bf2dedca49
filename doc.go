// Package fluxtrack reproduces "Fingerprinting Mobile User Positions in
// Sensor Networks" (Li, Jiang, Guibas — ICDCS 2010): a privacy attack that
// localizes and tracks mobile users inside a wireless sensor network from
// passively sniffed traffic-volume (flux) measurements alone.
//
// # The attack in one paragraph
//
// Mobile users act as mobile sinks: each data collection builds a routing
// tree rooted at the user's nearest node, so the per-node traffic volume
// ("flux") is proportional to subtree size and peaks at the user's
// position. The adversary sniffs flux at a sparse subset of nodes, fits a
// theoretical flux model to the readings by nonlinear least squares (the
// positions are the nonlinear unknowns; the per-user traffic stretches are
// solved in closed form by NNLS), and tracks users across observation
// rounds with a Sequential Monte Carlo filter (the paper's Algorithm 4.1).
//
// # Package layout
//
// The pipeline substrate, attack layers, and evaluation harness live under
// internal/:
//
//	geom       points, rects, ray-boundary intersection
//	rng        deterministic splitmix64 RNG and geometric samplers
//	mat        dense matrices, Cholesky, Gram-form NNLS, LM solver
//	stats      summaries, CDFs, percentiles
//	deploy     perturbed-grid and uniform-random deployments
//	network    unit-disk graph, BFS hops, neighborhood smoothing
//	routing    collection trees, subtree flux
//	traffic    users, combined flux, sampling, noise, reshaping
//	fluxmodel  the paper's theoretical flux model + accuracy stats
//	fit        NLS fitting and the parallel candidate search (§4.A)
//	brief      full-map recursive briefing baseline (§3.C)
//	smc        Algorithm 4.1 SMC tracker (+ active sets, heading)
//	ekf        Extended Kalman Filter baseline tracker
//	fault      deterministic fault injection + Byzantine adversary
//	fingerprint coarse-to-fine fingerprint candidate search
//	shard      tiled multi-shard tracking with cross-tile handoff
//	serve      resident multi-tenant tracking service (fluxserve)
//	sim        packet-level discrete-event collection simulator
//	mobility   trajectories and speed-bounded walks
//	trace      synthetic campus traces + syslog parser
//	obslog     observation recording format for offline attacks
//	obs        zero-overhead observability: counters, histograms, spans
//	par        deterministic fork-join worker pool
//	plot       ASCII charts for the CLI tools
//	core       top-level orchestration API (Scenario, Sniffer, trackers)
//	exp        experiment implementations + table rendering
//	oracle     dense reference solvers that only tests import
//
// The cmd/ directory holds the CLI tools (fluxbench regenerates every
// evaluation table; fluxsim renders single scenarios; tracegen and fluxrec
// handle traces and offline attacks; doccheck is the CI lint that every
// package is documented and that internal/ exports nothing only tests
// use), and examples/ holds runnable end-to-end scenarios.
//
// # Experiment index
//
// internal/exp regenerates every figure of the paper's evaluation plus the
// ablations of DESIGN.md §4; cmd/fluxbench runs them by id:
//
//	E1   fig3a      model approximation error CDF vs density
//	E2   fig3b      measured vs model flux by hop count
//	E3   fig4       recursive flux briefing, 3 users (§3.C)
//	E4   fig5       instant localization, 1/2/3 users, full effort
//	E5   fig6a      localization error vs sampling % (40 → 5)
//	E6   fig6b      localization error vs node count (900 → 1800)
//	E7   fig7       tracking cases incl. crossing trajectories
//	E8   fig8a      tracking error vs sampling %
//	E9   fig8b      tracking error vs node count
//	E10  fig10a     trace-driven tracking vs sampling %, grid vs random
//	E11  fig10b     trace-driven tracking vs max speed
//	A1+  ablations  search strategy, importance sampling, smoothing,
//	                countermeasures, noise, EKF baseline, heading,
//	                packet-level realism, aggregation defense
//	—    figRobust  tracking under degraded sensing (internal/fault)
//	E12  figCoarse  coarse-to-fine shortlist agreement + cost
//	E13  figShard   tiled tracking: seams, halos, per-tile work
//	E14  —          shard scale-out: skewed 10⁴–10⁵-user populations
//	E15  —          resident serving (historical; perfbench serve-stream now)
//	E16  figByzantine  Byzantine breakdown curve: 0–40% liars × robust defense
//	A4   countermeasure  traffic shaping (dummy flux + route
//	                randomization) vs attacker accuracy
//	                (fluxbench -quick -exp countermeasure)
//
// Run `fluxbench -list` for the exact registered ids and one-line notes;
// EXPERIMENTS.md records paper-reported vs measured shapes for each.
//
// # Determinism and parallelism
//
// Every stochastic component draws from an explicit seeded rng.Source, and
// every parallel layer (experiment trials, tracker phases, candidate
// scoring) shards work so results merge in index order: tables and tracker
// output are byte-identical at any worker count. The observability layer
// (internal/obs) preserves this — enabling metrics or step tracing never
// changes results, and counter totals are themselves worker-count-invariant.
package fluxtrack
