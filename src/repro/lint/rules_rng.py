"""RNG-discipline rules (RK101-RK103).

KnightKing's correctness argument is a determinism argument: two
engines sample the same walk law only if every random draw comes from
an explicitly seeded, explicitly threaded stream
(:mod:`repro.sampling.rng`).  These rules reject the three ways Python
code silently breaks that:

* ``RK101`` — the stdlib :mod:`random` module (one hidden global
  stream, shared by everything in the process);
* ``RK102`` — ``np.random.default_rng()``, a bit generator or a
  ``SeedSequence`` without a seed (OS entropy: a different walk every
  run, irreproducible by construction);
* ``RK103`` — numpy's *legacy* global-state API (``np.random.seed``,
  ``np.random.rand`` …), whose draws depend on every other legacy call
  in the process.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.rules import Rule

__all__ = ["StdlibRandomRule", "UnseededGeneratorRule", "LegacyNumpyRandomRule"]


class StdlibRandomRule(Rule):
    """RK101: no calls into the stdlib ``random`` module."""

    rule_id = "RK101"
    severity = Severity.ERROR
    description = (
        "stdlib random module call: draws from one hidden global stream; "
        "take an np.random.Generator parameter or derive one from an "
        "explicit seed (repro.sampling.rng)"
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = self.context.resolve_call(node)
        if (
            name is not None
            and (name == "random" or name.startswith("random."))
            and self._import_rooted(node)
        ):
            # `random.<fn>()` or `from random import shuffle; shuffle()`.
            # The import-rooted check keeps a local callable that merely
            # *happens* to be named `random` from firing.
            self.report(
                node,
                f"call to {name}() uses the process-global stdlib RNG; "
                "thread an explicit np.random.Generator instead",
            )
        self.generic_visit(node)

    def _import_rooted(self, node: ast.Call) -> bool:
        """True when the call chain's root name comes from an import."""
        root = node.func
        while isinstance(root, ast.Attribute):
            root = root.value
        return isinstance(root, ast.Name) and root.id in self.context.aliases


# Constructors that fall back to OS entropy when their seed argument
# (first positional, or this keyword) is missing or None.
_SEED_ARGUMENT = {
    "numpy.random.default_rng": "seed",
    "numpy.random.SeedSequence": "entropy",
    **{
        f"numpy.random.{bit_generator}": "seed"
        for bit_generator in ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")
    },
}


class UnseededGeneratorRule(Rule):
    """RK102: generators, bit generators and seed sequences need a seed."""

    rule_id = "RK102"
    severity = Severity.ERROR
    description = (
        "np.random.default_rng(), a bit generator or SeedSequence() "
        "without a seed draws OS entropy and is irreproducible; pass a "
        "seed, or use repro.sampling.rng.derive_rng"
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = self.context.resolve_call(node) or ""
        keyword = _SEED_ARGUMENT.get(name)
        if keyword is not None:
            seed = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg in (keyword, None):  # None: a **splat may seed it
                    seed = kw.value
            if seed is None or (
                isinstance(seed, ast.Constant) and seed.value is None
            ):
                self.report(
                    node,
                    f"{name.rsplit('.', 1)[1]}() without an explicit seed "
                    "is seeded from the OS; every run samples a different "
                    "walk",
                )
        self.generic_visit(node)


# The legacy global-state surface of numpy.random.  Anything here both
# reads and advances hidden module state; the new-generation API
# (default_rng / Generator / SeedSequence / bit generators) is exempt.
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed", "get_state", "set_state",
        "rand", "randn", "randint", "random_integers",
        "random", "random_sample", "ranf", "sample", "bytes",
        "choice", "shuffle", "permutation",
        "uniform", "normal", "standard_normal", "lognormal",
        "beta", "binomial", "chisquare", "dirichlet", "exponential",
        "f", "gamma", "geometric", "gumbel", "hypergeometric",
        "laplace", "logistic", "logseries", "multinomial",
        "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "pareto", "poisson",
        "power", "rayleigh", "standard_cauchy", "standard_exponential",
        "standard_gamma", "standard_t", "triangular", "vonmises",
        "wald", "weibull", "zipf",
    }
)


class LegacyNumpyRandomRule(Rule):
    """RK103: no legacy ``np.random.<dist>`` global-state calls."""

    rule_id = "RK103"
    severity = Severity.ERROR
    description = (
        "legacy numpy.random global-state API; draws depend on every "
        "other legacy call in the process — use an explicit Generator"
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = self.context.resolve_call(node)
        if name is not None and name.startswith("numpy.random."):
            tail = name[len("numpy.random."):]
            if tail in _LEGACY_NP_RANDOM:
                self.report(
                    node,
                    f"{name}() mutates numpy's hidden global RNG state; "
                    "use a seeded np.random.Generator",
                )
        self.generic_visit(node)
