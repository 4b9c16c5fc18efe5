"""Flow-rule specifications: sources, sinks, sanitizers per rule.

Each :class:`FlowSpec` is pure data — the taint engine interprets it,
so adding a flow rule means declaring what *creates* taint, what
*clears* it, and where tainted values must never *arrive*.  The four
rules shipped here are the interprocedural versions of invariants the
syntactic rules can only check one statement at a time:

* **RK110** — an ``np.random.Generator`` / ``TracedRNG`` must stay in
  the walker/node context that created it.  Serializing one
  (checkpoint, message payload) or handing one across a
  ``SupervisedPool`` / ``multiprocessing`` boundary forks the stream
  and breaks replay determinism.  The sanctioned way to move RNG state
  is ``rng.bit_generator.state`` (plain picklable dict) or a derived
  seed — both sanitize the taint.
* **RK210** — the flow version of RK201: a wall-clock reading may not
  *flow* into simulated-time (``cluster/``) code, no matter how many
  helper frames it crosses.  The RK201 allowlist exempts only the
  *read* (host-side profiling in ``cluster/engine.py``); the moment
  such a value flows into non-allowlisted cluster code, RK210 fires.
* **RK106** — a ``DynamicGraph.snapshot()`` epoch view must not
  outlive its epoch: storing one on ``self``/a module global (or
  capturing it in a closure that is stored) keeps serving stale
  topology after the next ``commit()``.  Two files are sanctioned,
  mirroring RK201's allowlist idiom: ``graph/prepared.py``, where
  ``prepare()`` pins the epoch every engine, shard set and service
  request walks, and ``core/engine.py``, whose constructor holds the
  pinned graph and its tables for exactly one run.
* **RK310** — the flow version of RK302: what *actually* reaches a
  process-boundary call site must be picklable.  Lambdas, generator
  expressions, nested functions, and open file handles are tainted at
  creation; materializing (``list(...)``) sanitizes.  Same-statement
  violations are left to RK301/RK302 so the two layers never
  double-report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.findings import Severity
from repro.lint.rules_time import (
    SIMULATED_TIME_PACKAGES,
    WALL_CLOCK_ALLOWLIST,
    _WALL_CLOCK_CALLS,
)

__all__ = ["FlowSpec", "FLOW_RULES", "flow_rule_ids"]

# Methods whose first positional argument (and everything after it)
# crosses a process boundary — shared with rules_process.py's
# syntactic RK301/RK302.
CROSS_PROCESS_METHODS = frozenset(
    {"run", "map", "starmap", "imap", "imap_unordered", "apply",
     "apply_async", "submit"}
)
PARENT_SIDE_KWARGS = frozenset({"describe"})

# Container-mutating method names: `msgs.append(rng)` taints `msgs`.
CONTAINER_MUTATORS = frozenset(
    {"append", "add", "extend", "insert", "appendleft", "update",
     "setdefault"}
)

_SCALAR_SANITIZERS = frozenset(
    {"int", "float", "str", "bool", "len", "hash", "repr", "round",
     "bytes", "format", "id"}
)


@dataclass(frozen=True)
class FlowSpec:
    """Declarative source/sink/sanitizer description of one flow rule."""

    rule_id: str
    description: str
    severity: Severity = Severity.ERROR

    # -- sources -------------------------------------------------------
    source_calls: frozenset[str] = frozenset()       # canonical dotted names
    source_methods: frozenset[str] = frozenset()     # method names, any recv
    lambda_source: bool = False
    genexp_source: bool = False
    localfunc_source: bool = False

    # -- propagation / sanitizers --------------------------------------
    sanitize_calls: frozenset[str] = _SCALAR_SANITIZERS
    sanitize_attrs: frozenset[str] = frozenset()
    # Whether `x.attr` keeps x's taint.  True for value-like taint
    # (wall-clock numbers, RNG streams); False when only the *object
    # itself* is hazardous (a snapshot view: arrays copied off it at
    # build time are the sanctioned per-epoch pattern).
    propagate_attrs: bool = True
    # Method call on a tainted receiver: "clean" (drawing data off the
    # object) or "taint" (the object's essence survives the call).
    receiver_default: str = "clean"
    tainting_methods: frozenset[str] = frozenset()
    propagate_unknown_calls: bool = True

    # -- sinks ---------------------------------------------------------
    # None: process boundaries are not sinks; "payload": args after the
    # callable (RK110); "all": callable position included (RK310).
    process_boundary: str | None = None
    sink_calls: dict = field(default_factory=dict)    # dotted -> positions|None
    sink_methods: dict = field(default_factory=dict)  # attr name -> positions|None
    escape_sinks: bool = False                        # self/global stores (RK106)
    # (packages, allowlist): tainted values may not flow into functions
    # of these packages (RK210).
    region: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    # rel_path suffixes where this rule's sinks are sanctioned.
    allow_paths: tuple[str, ...] = ()
    # Skip findings whose only source sits on the sink's own line
    # (covered by the syntactic twin rule).
    skip_same_line: bool = False

    sink_message: str = ""

    def sanctioned(self, rel_path: str) -> bool:
        return any(rel_path.endswith(suffix) for suffix in self.allow_paths)


RK110 = FlowSpec(
    rule_id="RK110",
    description=(
        "RNG escape (flow): a Generator/TracedRNG crosses a message, "
        "snapshot, or process boundary — possibly through helper calls; "
        "move seeds or bit_generator.state instead, and re-derive the "
        "stream node-locally"
    ),
    source_calls=frozenset(
        {
            "numpy.random.default_rng",
            "numpy.random.Generator",
            "repro.sampling.rng.derive_rng",
            "repro.sampling.rng.spawn_rngs",
            "repro.lint.sanitizer.TracedRNG",
        }
    ),
    sanitize_attrs=frozenset({"bit_generator", "state", "entropy",
                              "spawn_key"}),
    tainting_methods=frozenset({"spawn"}),
    receiver_default="clean",
    process_boundary="payload",
    sink_calls={
        "pickle.dump": (0,), "pickle.dumps": (0,),
        "json.dump": (0,), "json.dumps": (0,),
        "marshal.dump": (0,), "marshal.dumps": (0,),
        "copyreg.pickle": None,
    },
    sink_methods={
        "send": None, "send_message": None, "post": None,
        "post_message": None, "publish": None, "enqueue": None,
        "put": None, "put_nowait": None,
    },
    sink_message=(
        "np.random.Generator created in walker/node context reaches a "
        "cross-boundary sink here{trace}; pass a seed or "
        "bit_generator.state and re-derive the stream on the other side"
    ),
)

RK210 = FlowSpec(
    rule_id="RK210",
    description=(
        "wall-clock taint (flow): a host-clock reading flows — through "
        "any number of helpers — into simulated-time cluster code; "
        "simulation decisions must derive from the cost model "
        "(supersedes RK201's per-file allowlist for indirect flows)"
    ),
    source_calls=frozenset(_WALL_CLOCK_CALLS),
    sanitize_calls=frozenset(),  # int(time.time()) is still wall clock
    receiver_default="taint",
    region=(SIMULATED_TIME_PACKAGES, WALL_CLOCK_ALLOWLIST),
    sink_message=(
        "wall-clock value{trace} flows into simulated-time code here; "
        "derive it from the cost model's simulated seconds instead"
    ),
)

RK106 = FlowSpec(
    rule_id="RK106",
    description=(
        "epoch-snapshot escape (flow): a DynamicGraph.snapshot() view is "
        "stored on self/a global or captured by a stored closure, so it "
        "can outlive its epoch and serve stale topology after the next "
        "commit; take a fresh snapshot per walk (graph/prepared.py's "
        "prepare() and the engine constructor that holds its result "
        "for one run are the sanctioned exceptions)"
    ),
    source_methods=frozenset({"snapshot", "snapshot_at"}),
    propagate_attrs=False,
    receiver_default="clean",
    escape_sinks=True,
    allow_paths=("graph/prepared.py", "core/engine.py"),
    sink_message=(
        "epoch-snapshot view{trace} is stored somewhere that can outlive "
        "its epoch; hold it in a local and re-snapshot after commits"
    ),
)

RK310 = FlowSpec(
    rule_id="RK310",
    description=(
        "spawn-payload purity (flow): a value that actually reaches a "
        "process-boundary call site is unpicklable (lambda, generator "
        "expression, nested function, open file) even though the call "
        "site itself looks clean; build payloads from module-level "
        "callables and materialized data"
    ),
    lambda_source=True,
    genexp_source=True,
    localfunc_source=True,
    source_calls=frozenset({"open"}),
    sanitize_calls=_SCALAR_SANITIZERS
    | frozenset({"list", "tuple", "set", "dict", "sorted", "frozenset"}),
    receiver_default="clean",
    process_boundary="all",
    skip_same_line=True,
    sink_message=(
        "unpicklable value{trace} reaches this process-boundary call "
        "site; it dies at pickling time under spawn start methods"
    ),
)

FLOW_RULES: tuple[FlowSpec, ...] = (RK106, RK110, RK210, RK310)


def flow_rule_ids() -> frozenset[str]:
    return frozenset(spec.rule_id for spec in FLOW_RULES)
