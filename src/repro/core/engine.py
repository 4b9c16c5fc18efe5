"""The single-process walker-centric walk engine.

:class:`WalkEngine` executes any :class:`~repro.core.program.WalkerProgram`
over a CSR graph following the iteration structure of paper section 5.1,
without the message-passing layer (the distributed variant lives in
:mod:`repro.cluster.engine`; it and the baseline engines run this
module's superstep loop and override one hook, ``_trial_round``):

1. check the extension component Pe — dead ends, the configured step
   limit, the per-step termination coin, and any program-specific
   continuation test;
2. run rejection-sampling trials over the static tables: candidates
   from alias tables, lower-bound pre-acceptance, on-demand Pd
   evaluation, outlier appendices;
3. move walkers along accepted edges.

Pacing follows the paper: static and first-order programs move in
*lockstep* — within one iteration every walker retries until it moves
("step" pacing) — while second-order programs spend one trial per
iteration, because each trial costs a two-round query exchange in the
distributed setting; rejected walkers stay put and retry next iteration
("trial" pacing).

Static programs (Pd = 1) set envelope == lower bound == 1 so every
trial pre-accepts on the first dart: rejection sampling degenerates to
plain alias sampling exactly as the paper promises ("morphing into
the alias solution automatically in static walks").  One array serves
as both bounds, which the trial kernel reads as a flat envelope: it
draws the darts and skips the arithmetic whose outcome is known.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import WalkConfig
from repro.core.kernels import (
    ZERO_MASS_GUARD_TRIALS,
    GatherContext,
    KernelScratch,
    adaptive_trial_count,
    batch_trial_round,
    first_accepts,
    full_scan_distribution,
    full_scan_spans,
    gather_stage,
)
from repro.core.program import WalkerProgram
from repro.core.stats import WalkStats
from repro.core.trace import PathRecorder, token_dtype
from repro.core.walker import WalkerSet
from repro.errors import ProgramError, SnapshotError
from repro.graph.csr import CSRGraph
from repro.graph.prepared import PreparedGraph, prepare
from repro.sampling.rejection import RejectionSampler
from repro.sampling.rng import derive_rng, restore_rng_words, rng_state_words
from repro.sampling.tables import unit_weights

__all__ = ["EVENTS", "WalkEngine", "WalkResult", "ZERO_MASS_GUARD_TRIALS"]

# The event seam (``WalkEngine.observe``): what the span tracer, the
# determinism sanitizer and the path recorder subscribe to.  Emissions
# are per run, superstep or round, never per walker.
EVENTS = (
    "run_begin",  # (engine)
    "run_end",  # (status, iterations)
    "superstep_begin",  # ()
    "superstep_end",  # (bill): the cluster's per-node cost, None locally
    "stage",  # (name, lanes): "update" | "gather" | "move" starts here
    "moves",  # (walker_ids, targets), before the walkers move
    "kills",  # (walker_ids), before the walkers die
    "delivery",  # (kind_name, source_nodes, destination_nodes)
)


@dataclass
class WalkResult:
    """Outcome of one walk execution.

    ``status`` says how the run ended:

    * ``"complete"`` — every walker terminated;
    * ``"paused"`` — stopped by ``max_iterations`` with walkers alive
      (the checkpoint/monitoring hook);
    * ``"deadline_exceeded"`` — the deadline expired between iteration
      batches; the result is a well-formed partial (stats, walker
      positions, and any recorded path prefixes are all consistent);
    * ``"cancelled"`` — a cancel token fired, same partial guarantees.
    """

    stats: WalkStats
    walkers: WalkerSet
    paths: list[np.ndarray] | None
    status: str = "complete"

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def walk_lengths(self) -> np.ndarray:
        """Steps taken per walker."""
        return self.walkers.steps

    def corpus(self) -> list[list[int]]:
        """Recorded walk sequences as lists (requires record_paths)."""
        if self.paths is None:
            raise ProgramError("paths were not recorded; set record_paths=True")
        return [path.tolist() for path in self.paths]


class WalkEngine:
    """Single-process KnightKing engine.

    Parameters
    ----------
    graph, program, config:
        what to walk, how to sample, and how many walkers/steps.
    use_lower_bound:
        toggle for the pre-acceptance optimization of paper section
        4.2, exposed so the Table 5 ablations can disable it (a zero
        lower bound is always sound).  Outlier folding is toggled on
        the *program* (e.g. ``Node2Vec(fold_outlier=...)``) because the
        envelope must be widened consistently when folding is off.
    force_scalar:
        run the per-walker reference path even if the program provides
        batch hooks (used by tests to check the two paths agree).
    validate_bounds:
        debug mode: assert every evaluated Pd respects the declared
        envelope, raising :class:`~repro.errors.ProgramError` on the
        first violation (which would otherwise silently skew the
        sampled law).  Off by default for speed.
    """

    def __init__(
        self,
        graph: CSRGraph | PreparedGraph,
        program: WalkerProgram,
        config: WalkConfig | None = None,
        use_lower_bound: bool = True,
        force_scalar: bool = False,
        validate_bounds: bool = False,
    ) -> None:
        config = config if config is not None else WalkConfig()
        program.validate()
        # The static half; a DynamicGraph is pinned to its current epoch
        # here, so later commits never move arrays under a running engine.
        prepared = prepare(graph)
        self.graph = graph = prepared.graph
        self.graph_epoch = prepared.epoch
        self.program = program
        self.config = config
        self.use_lower_bound = use_lower_bound
        self.validate_bounds = validate_bounds
        self._batch = program.supports_batch and not force_scalar

        init_start = time.perf_counter()
        self.tables = prepared.tables("alias", program.edge_static_comp(graph))
        self._scalar_sampler = RejectionSampler(self.tables)
        if program.dynamic:
            self.upper, self.lower = prepared.bounds_for(program, use_lower_bound)
        else:
            # Static walk: Pd is identically 1, so the tight envelope
            # and lower bound coincide — one array, a flat envelope —
            # and every dart pre-accepts.
            self.upper = self.lower = unit_weights(graph.num_vertices)
        # Whether Pe must look for dead ends at all: a property of the
        # tables (no vertex without static mass), not of the run.
        self._has_dead_ends = self.tables.has_dead_ends

        # The other half: what a run advances (state_arrays).
        starts = config.resolve_starts(graph)
        self.walkers = WalkerSet(starts, history_depth=program.history_depth)
        self._rng = derive_rng(config.seed, 0xE17)
        if type(program).setup_walkers is not WalkerProgram.setup_walkers:
            # Its own stream, derived only for a program that draws from it.
            program.setup_walkers(graph, self.walkers, derive_rng(config.seed, 0x5E7))
        self._hooks: dict[str, list] = {event: [] for event in EVENTS}
        self._recorder = (
            PathRecorder(
                starts,
                config.max_steps,
                config.stream_paths_to,
                token_dtype(graph.num_vertices, starts.size),
            )
            if config.record_paths or config.stream_paths_to is not None
            else None
        )
        self.observe(self._recorder)
        self._rejection_streak = np.zeros(self.walkers.num_walkers, dtype=np.int64)
        # maintenance is a live reference: the owning DynamicGraph keeps
        # accumulating verification and fallback counters into it.
        self.stats = WalkStats(
            graph_epoch=prepared.epoch, maintenance=prepared.maintenance
        )
        # "trial" pacing for second-order programs, "step" otherwise.
        self.sync_mode = "trial" if program.order == 2 else "step"
        # Trial fusion: each round of a step-paced dynamic program is
        # widened to K speculative trials per walker (K lanes of the one
        # batch kernel), K adapted to the running acceptance rate.
        # Trial (second-order) pacing is never fused — one trial per
        # superstep there is a semantic, not an inefficiency — and
        # static programs pre-accept every first dart, so speculation
        # would be pure waste.
        self._fuse = self._batch and program.dynamic and self.sync_mode == "step"
        self._scratch = KernelScratch()
        self._has_custom_continue = (
            type(program).should_continue is not WalkerProgram.should_continue
            or type(program).batch_should_continue
            is not WalkerProgram.batch_should_continue
        )
        self._has_teleports = (
            type(program).teleport_targets is not WalkerProgram.teleport_targets
        )
        self.stats.init_time_seconds = time.perf_counter() - init_start

    def observe(self, subscriber) -> None:
        """Bind, once, whichever ``on_<event>`` methods (:data:`EVENTS`)
        the duck-typed *subscriber* defines; its ``wrap_rng(rng)``, if
        any, replaces the walk RNG with a drop-in proxy.  ``None`` and
        ``enabled=False`` (a switched-off :class:`repro.obs.Tracer`)
        bind nothing: an unobserved engine iterates empty lists.  Call
        before :meth:`run`.  Subscribers only observe — they consume no
        randomness and never feed back into the walk.
        """
        if subscriber is None or not getattr(subscriber, "enabled", True):
            return
        for event, hooks in self._hooks.items():
            hook = getattr(subscriber, "on_" + event, None)
            if hook is not None:
                hooks.append(hook)
        wrap_rng = getattr(subscriber, "wrap_rng", None)
        if wrap_rng is not None:
            self._rng = wrap_rng(self._rng)

    # ------------------------------------------------------------------
    # Run state, enumerated once: a crash rollback copies this dict and
    # writes it back (repro.cluster.recovery); a checkpoint file is this
    # dict plus the recorded paths (repro.core.snapshot) — hence its keys.
    # ------------------------------------------------------------------
    def _live_state(self) -> dict[str, np.ndarray]:
        """The arrays a run advances in place, by checkpoint key."""
        walkers = self.walkers
        live = {
            "current": walkers.current,
            "previous": walkers.previous,
            "steps": walkers.steps,
            "alive": walkers.alive,
            "rejection_streak": self._rejection_streak,
        }
        if walkers.history is not None:
            live["history"] = walkers.history
        for name in walkers.state_names:
            live[f"state_{name}"] = walkers.state(name)
        return live

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The run's logical state by checkpoint key.  In-place arrays
        are the live ones — copy before keeping."""
        return {
            **self._live_state(),
            "state_names": np.asarray(self.walkers.state_names, dtype="U64"),
            "rng_state": rng_state_words(self._rng),
            "stats_scalars": self.stats.pack(),
            "active_per_iteration": np.asarray(
                self.stats.active_per_iteration, dtype=np.int64
            ),
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Write a :meth:`state_arrays` dict back in place — arrays,
        ``stats`` and the RNG stay the same objects — and rewind the
        recorder to the restored step counts.  A missing key is a
        ``KeyError``, state that cannot be this engine's a
        :class:`~repro.errors.SnapshotError`."""
        live = self._live_state()
        if arrays["current"].size != self.walkers.num_walkers:
            raise SnapshotError(
                "checkpoint walker count does not match configuration"
            )
        if "history" in live and "history" not in arrays:
            raise SnapshotError("checkpoint lacks walker history for this program")
        if arrays["state_names"].tolist() != self.walkers.state_names:
            raise SnapshotError("checkpoint walker state is not this program's")
        for key, array in live.items():
            array[:] = arrays[key]
        restore_rng_words(self._rng, arrays["rng_state"])
        self.stats.unpack(arrays["stats_scalars"])
        self.stats.active_per_iteration[:] = arrays["active_per_iteration"].tolist()
        if self._recorder is not None:
            # Recorded counts equal walkers.steps, so restoring the
            # steps is the whole rollback (see PathRecorder.rewind).
            self._recorder.rewind(self.walkers.steps)

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """What a checkpoint file holds (:mod:`repro.core.snapshot`
        owns only the format): the run state, the pinned graph epoch
        and the recorded paths."""
        arrays = self.state_arrays()
        if self.graph_epoch is not None:
            # Restore demands the same epoch (replayed from the WAL).
            arrays["graph_epoch"] = np.asarray([self.graph_epoch], dtype=np.int64)
        if self._recorder is not None:
            arrays["path_tokens"], arrays["path_counts"] = self._recorder.packed()
        return arrays

    def load_checkpoint_arrays(self, data: dict[str, np.ndarray]) -> None:
        """Load a :meth:`checkpoint_arrays` dict into this freshly built
        engine; a missing key is a ``KeyError``."""
        self.load_state_arrays(data)
        if self._recorder is None:
            return
        if "path_tokens" not in data:
            raise SnapshotError("checkpoint lacks recorded paths but record_paths=True")
        try:
            self._recorder.restore(data["path_tokens"], data["path_counts"])
        except ValueError as exc:
            raise SnapshotError(
                f"checkpoint paths do not match configuration: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def run(
        self,
        max_iterations: int | None = None,
        deadline=None,
        cancel=None,
    ) -> WalkResult:
        """Execute the walk and return the result.

        ``max_iterations`` stops the engine early (walkers stay alive
        in the returned result) — the hook used for monitoring and for
        checkpoint/resume (:mod:`repro.core.snapshot`).

        ``deadline`` (an object with ``expired()``, e.g.
        :class:`repro.service.Deadline`) and ``cancel`` (an object with
        ``.cancelled``, e.g. :class:`repro.service.CancelToken`) turn
        the loop into chunked cooperative execution: both are checked
        between iteration batches, and an expired deadline or a fired
        token stops the run with a partial, well-formed result tagged
        ``"deadline_exceeded"`` / ``"cancelled"``.  Neither consumes
        randomness, so a run that finishes before its deadline is
        bit-identical to an unbounded run with the same seed.
        """
        loop_start = time.perf_counter()
        for hook in self._hooks["run_begin"]:
            hook(self)
        executed = 0
        status = "complete"
        while self.walkers.num_active:
            if max_iterations is not None and executed >= max_iterations:
                status = "paused"
                break
            if cancel is not None and cancel.cancelled:
                status = "cancelled"
                break
            if deadline is not None and deadline.expired():
                status = "deadline_exceeded"
                break
            self._iteration()
            executed += 1
        for hook in self._hooks["run_end"]:
            hook(status, executed)
        self.stats.wall_time_seconds += time.perf_counter() - loop_start
        return self._result(status)

    def _result(self, status: str) -> WalkResult:
        return WalkResult(self.stats, self.walkers, self._finish_paths(), status)

    def _finish_paths(self) -> list[np.ndarray] | None:
        """Recorded paths; ``None`` if not recorded or streamed to a file."""
        if self._recorder is None:
            return None
        return self._recorder.finish(complete=not self.walkers.num_active)

    # ------------------------------------------------------------------
    def _iteration(self) -> None:
        for hook in self._hooks["superstep_begin"]:
            hook()
        active = self.walkers.active_ids()
        self.stats.active_per_iteration.append(active.size)
        self.stats.iterations += 1
        survivors = self._advance_walkers(active)
        if survivors.size:
            self._move_walkers(survivors)
        for hook in self._hooks["superstep_end"]:
            hook(None)

    def _advance_walkers(self, active: np.ndarray) -> np.ndarray:
        """Update stage (in the ThunderRW staging): termination and
        teleport bookkeeping before the sampling rounds; returns the
        walkers still in play."""
        for hook in self._hooks["stage"]:
            hook("update", active.size)
        active = self._apply_extension_component(active)
        if self._has_teleports and active.size:
            active = self._apply_teleports(active)
        return active

    def _move_walkers(self, survivors: np.ndarray) -> None:
        """The superstep body, shared by every engine: Gather once,
        then trial rounds until the pacing is satisfied.

        The Gather stage runs once per superstep — retry rounds reuse
        sliced views of the same per-lane arrays, because a rejected
        walker has not moved.
        """
        stage_hooks = self._hooks["stage"]
        for hook in stage_hooks:
            hook("gather", survivors.size)
        ctx = self._gather(survivors)
        for hook in stage_hooks:
            hook("move", survivors.size)
        self._run_rounds(ctx)

    def _gather(self, survivors: np.ndarray) -> GatherContext:
        return gather_stage(
            self.tables, self.walkers, survivors, self.upper, self.lower
        )

    def _run_rounds(self, ctx: GatherContext) -> None:
        """Move stage: one round under trial pacing; under step pacing,
        lockstep — every lane moves (or is terminated by the zero-mass
        guard) within this superstep."""
        if self.sync_mode == "trial":
            self._trial_round(ctx)
            return
        while ctx.size:
            resolved = self._trial_round(ctx)
            if np.count_nonzero(resolved) == resolved.size:
                break
            ctx = ctx.take(~resolved)

    def _apply_teleports(self, active: np.ndarray) -> np.ndarray:
        """Move teleporting walkers directly; return the remainder."""
        jump = self.program.teleport_targets(
            self.graph, self.walkers, active, self._rng
        )
        if jump is None:
            return active
        jumper_ids, targets = jump
        if jumper_ids.size == 0:
            return active
        self._commit_moves(jumper_ids, np.asarray(targets, dtype=np.int64))
        self.stats.teleports += jumper_ids.size
        return np.setdiff1d(active, jumper_ids, assume_unique=True)

    def _apply_extension_component(self, active: np.ndarray) -> np.ndarray:
        """Pe: kill walkers whose walk ends here; return survivors."""
        config = self.config
        walkers = self.walkers

        # No out-edges with positive static mass: nothing to sample.
        if self._has_dead_ends:
            dead = self.tables.totals[walkers.current[active]] <= 0.0
            if np.count_nonzero(dead):
                self._kill(active[dead], "by_dead_end")
                active = active[~dead]

        if config.max_steps is not None and active.size:
            done = walkers.steps[active] >= config.max_steps
            if np.count_nonzero(done):
                self._kill(active[done], "by_step_limit")
                active = active[~done]

        if config.termination_probability > 0.0 and active.size:
            coins = self._rng.random(active.size)
            stop = coins < config.termination_probability
            if np.count_nonzero(stop):
                self._kill(active[stop], "by_probability")
                active = active[~stop]

        if self._has_custom_continue and active.size:
            keep = self.program.batch_should_continue(self.graph, walkers, active)
            if np.count_nonzero(keep) < keep.size:
                self._kill(active[~keep], "by_step_limit")
                active = active[keep]
        return active

    # ------------------------------------------------------------------
    def _trial_round(self, ctx: GatherContext) -> np.ndarray:
        """One trial per lane of ``ctx``; moves the accepted ones.

        The single override point for engines that sample differently
        (the baselines).  Returns the resolved-lane mask (moved, killed,
        or guarded), aligned with ``ctx.walker_ids``.
        """
        counters = self.stats.counters
        trials_spent = None
        if self._batch:
            # A fused round is the same kernel over a widened context:
            # K speculative trials per walker as K lanes, of which each
            # walker keeps (and is charged up to) its first accept.
            k = adaptive_trial_count(counters) if self._fuse else 1
            outcome = batch_trial_round(
                self.graph,
                self.tables,
                self.program,
                self.walkers,
                ctx.repeat(k) if self._fuse else ctx,
                self._rng,
                None if self._fuse else counters,
                self._scratch,
                validate_bounds=self.validate_bounds,
                main_dynamic_comp=self._main_dynamic_comp,
            )
            if self._fuse:
                accepted, edges, trials_spent, pd_spent = first_accepts(
                    outcome, k, counters
                )
                self._account_lane_work(
                    ctx.vertices, trials_spent, slice(None), pd_spent
                )
            else:
                accepted, edges = outcome.accepted, outcome.edges
                self._account_lane_work(ctx.vertices, 1, outcome.pd_lanes, 1)
        else:
            accepted, edges = self._scalar_round(ctx.walker_ids)
        return self._commit_round(ctx.walker_ids, accepted, edges, trials_spent)

    # ------------------------------------------------------------------
    # Move/Update hooks; the distributed engine overrides
    # _main_dynamic_comp to run its query exchange, and _commit_moves,
    # _run_guard and _account_lane_work to add per-node message and
    # work accounting.
    # ------------------------------------------------------------------
    def _main_dynamic_comp(
        self, walker_ids: np.ndarray, edges: np.ndarray
    ) -> np.ndarray:
        """Pd for the trial kernel's main-region candidates that missed
        pre-acceptance."""
        return self.program.batch_dynamic_comp(
            self.graph, self.walkers, walker_ids, edges
        )

    def _commit_round(
        self,
        walker_ids: np.ndarray,
        accepted: np.ndarray,
        edges: np.ndarray,
        trials_spent: np.ndarray | None = None,
    ) -> np.ndarray:
        """Move/Update tail of one trial round: apply the accepted
        transitions, advance rejection streaks, fire the zero-mass
        guard.  Returns the resolved-lane mask (moved or guarded)."""
        moving = np.count_nonzero(accepted)
        if moving == accepted.size:
            # Every lane moving (a static walk's every round) needs no
            # gather through the mask, nor a list of stuck lanes.
            if moving:
                self._commit_moves(walker_ids, self.graph.targets[edges])
            return accepted
        if moving:
            self._commit_moves(
                walker_ids[accepted], self.graph.targets[edges[accepted]]
            )
        stuck_lanes = (~accepted).nonzero()[0]
        stuck = walker_ids[stuck_lanes]
        # The streak advances by trials actually consumed, so a
        # fused round (K trials per walker) reaches the guard after
        # the same trial budget as single-trial rounds.
        if trials_spent is None:
            self._rejection_streak[stuck] += 1
        else:
            self._rejection_streak[stuck] += trials_spent[stuck_lanes]
        # Positional indexing — walker_ids carries no ordering
        # guarantee, so a sorted-array search would silently flag
        # the wrong lane.
        guarded_lanes = stuck_lanes[
            self._rejection_streak[stuck] >= ZERO_MASS_GUARD_TRIALS
        ]
        if guarded_lanes.size == 0:
            return accepted
        moved = accepted.copy()
        if self._batch:
            # The guard always resolves a walker (kill or an exact
            # move), so every guarded lane leaves the pending set.
            self._run_guard(walker_ids[guarded_lanes])
            moved[guarded_lanes] = True
        else:
            for lane in guarded_lanes:
                if self._guard_walker(int(walker_ids[lane])):
                    moved[lane] = True
        return moved

    def _commit_moves(self, movers: np.ndarray, targets: np.ndarray) -> None:
        """Apply one batch of accepted transitions — the one place any
        engine moves walkers; events carry int64 ids, as walker state."""
        targets = targets.astype(np.int64, copy=False)
        for hook in self._hooks["moves"]:
            hook(movers, targets)
        self.walkers.move(movers, targets)
        self._rejection_streak[movers] = 0
        self.stats.total_steps += movers.size

    def _kill(self, walker_ids: np.ndarray, cause: str) -> None:
        """Terminate walkers — the one place any engine does; ``cause``
        names the :class:`TerminationBreakdown` field to charge."""
        for hook in self._hooks["kills"]:
            hook(walker_ids)
        self.walkers.kill(walker_ids)
        termination = self.stats.termination
        setattr(termination, cause, getattr(termination, cause) + walker_ids.size)

    def _run_guard(self, ids: np.ndarray) -> None:
        """Resolve persistently rejected walkers (kill or exact move)."""
        self._guard_batch(ids)

    def _account_lane_work(
        self,
        vertices: np.ndarray,
        trials: np.ndarray | int,
        pd_lanes: np.ndarray | slice,
        pd: np.ndarray | int,
    ) -> None:
        """Attribute one round's work to the walkers' locations:
        ``trials`` per lane of ``vertices``, and ``pd`` Pd evaluations
        at the lane positions ``pd_lanes``.  A no-op here; the
        distributed engine charges each vertex's owning node."""

    def _guard_batch(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised zero-mass guard over several walkers at once.

        Same semantics as :meth:`_guard_walker` — scan the full edge
        span, terminate on zero eligible mass, otherwise move by an
        exact draw from the scanned distribution — but the spans come
        from the shared :func:`~repro.core.kernels.full_scan_spans`
        kernel (one ``batch_dynamic_comp`` over the concatenated spans,
        one global-CDF searchsorted for the draws), so programs whose
        walkers hit the guard in bulk (Meta-path at every scheme dead
        end) don't fall off the vectorised path.

        Kills precede the draw so the RNG consumes exactly one uniform
        per surviving walker, in lane order.  Returns the per-walker Pd
        evaluation counts, which the distributed engine attributes to
        each walker's node.
        """
        spans = full_scan_spans(
            self.graph, self.tables, self.program, self.walkers, ids
        )
        self.stats.full_scan_evaluations += int(spans.evaluations.sum())

        dead = spans.totals <= 0.0
        if np.count_nonzero(dead):
            doomed = ids[dead]
            self._kill(doomed, "by_dead_end")
            self._rejection_streak[doomed] = 0

        live = (~dead).nonzero()[0]
        if live.size:
            edges = spans.sample(live, self._rng)
            self._commit_moves(ids[live], self.graph.targets[edges])
        return spans.evaluations

    def _scalar_round(
        self, walker_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference per-walker trial round (no batch hooks needed)."""
        accepted = np.zeros(walker_ids.size, dtype=bool)
        edges = np.full(walker_ids.size, -1, dtype=np.int64)
        for lane, walker_id in enumerate(walker_ids):
            view = self.walkers.view(int(walker_id))
            vertex = view.current
            outliers = (
                self.program.outlier_specs(self.graph, view)
                if self.program.dynamic
                else ()
            )
            edge = self._scalar_sampler.try_once(
                vertex,
                self._rng,
                self._scalar_pd(view),
                float(self.upper[vertex]),
                float(self.lower[vertex]),
                outliers,
                self.stats.counters,
            )
            if edge is not None:
                accepted[lane] = True
                edges[lane] = edge
        return accepted, edges

    def _scalar_pd(self, view):
        """Pd closure that resolves state queries synchronously."""
        program, graph = self.program, self.graph

        def pd_of(edge_index: int) -> float:
            query = program.state_query(graph, view, edge_index)
            result = (
                program.answer_state_query(graph, query)
                if query is not None
                else None
            )
            return program.edge_dynamic_comp(graph, view, edge_index, result)

        return pd_of

    def _guard_walker(self, walker_id: int) -> bool:
        """Zero-mass guard for a persistently rejected walker.

        Scans the walker's vertex once.  Zero eligible mass terminates
        the walk (no out-edge has positive transition probability);
        otherwise the walker moves by an exact draw from the scanned
        distribution.  Returns True if the walker moved or terminated.
        """
        mass, evaluations = full_scan_distribution(
            self.graph, self.tables, self.program, self.walkers, walker_id
        )
        self.stats.full_scan_evaluations += evaluations
        total = float(mass.sum())
        if total <= 0.0:
            self._kill(np.asarray([walker_id]), "by_dead_end")
            self._rejection_streak[walker_id] = 0
            return True
        cdf = np.cumsum(mass)
        draw = self._rng.random() * total
        local = int(np.searchsorted(cdf, draw, side="right"))
        start, _ = self.graph.edge_range(int(self.walkers.current[walker_id]))
        target = self.graph.targets[start + local]
        self._commit_moves(np.asarray([walker_id]), np.asarray([target]))
        return True
