"""R002 — determinism.

Two runs of the same experiment must produce bit-identical tables (the
parallel engine merges per-job results assuming exactly that, and the
differential verifier replays traces assuming it too).  This rule flags
the classic ways Python code goes quietly non-deterministic:

* **Unseeded global RNG** — any ``random.X(...)`` module-level call.
  Seeded ``random.Random(seed)`` instances are the sanctioned idiom:
  the global RNG's state is shared across the whole process and is not
  reproducible across ``ProcessPoolExecutor`` workers.
* **Wall-clock reads** — ``time.time()``, ``time.monotonic()``,
  ``time.perf_counter()``, ``datetime.now()`` and friends.  Timing a run
  for *display* is fine (suppress with a comment saying so); feeding a
  clock into simulation state is never fine.
* **Unordered iteration** — ``for x in {…}`` / ``for x in set(...)`` and
  bare ``dict.popitem()`` (argument-less; ``OrderedDict.popitem(last=…)``
  is deterministic and not flagged).  Set iteration order depends on the
  interning of the elements and the hash seed.
* **Environment reads outside the RunConfig module** —
  ``os.environ[...]`` / ``os.getenv(...)`` anywhere except
  ``repro/eval/config.py``, the typed resolution point every runtime
  knob funnels through.  A predictor or trace generator that consults
  the environment produces figures nobody can reproduce from the command
  line alone; even engine and telemetry code must go through
  :mod:`repro.eval.config` so precedence (defaults < env < CLI flags)
  is decided in exactly one place.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..astutil import attr_chain
from ..core import Finding, ModuleInfo, Rule, register

#: random-module functions that use the shared global RNG state.
GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)

#: Wall-clock reads: (module, attribute).
CLOCK_FUNCS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: The only modules in which environment reads are sanctioned: the typed
#: RunConfig resolution point (every knob funnels through it) and the
#: lint package's own fixtures.  Until PR 7 whole packages (eval/,
#: telemetry/) were exempt; collapsing the knob sprawl into
#: ``repro.eval.config`` let the allowlist shrink to one module.
ENV_ALLOWED_MODULES = ("eval/config.py",)

#: Packages whose *job* is measuring wall time: the observability plane
#: (``repro.obs``) exists to timestamp spans, latency histograms,
#: flight-recorder events and run manifests, so its clock reads (the
#: ``wall_clock``/``perf_clock`` the rest of the tree calls included) are
#: the product, not a leak into simulation state.  Nothing in ``obs/`` feeds
#: predictor or trace state — the import graph only flows the other way
#: (serve/eval/kernels *call into* obs) — so the exemption is scoped to
#: the package rather than sprinkled as per-line suppressions.
CLOCK_ALLOWED_PACKAGES = ("obs",)


def _env_read_allowed(module: "ModuleInfo") -> bool:
    relpath = module.relpath.replace("\\", "/")
    return any(relpath.endswith(suffix) for suffix in ENV_ALLOWED_MODULES)


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class DeterminismRule(Rule):
    id = "R002"
    title = "determinism"
    rationale = (
        "Unseeded RNG, wall-clock reads, unordered iteration and"
        " out-of-band environment reads make runs non-reproducible —"
        " the engine's serial==parallel merge and the differential"
        " verifier both assume bit-identical replay."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                finding = self._check_call(module, node)
                if finding is not None:
                    yield finding
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if _is_set_expression(iterable):
                    yield self.finding(
                        module,
                        iterable,
                        "iteration over an unordered set reaches results"
                        " in hash order; sort it or use an ordered"
                        " container",
                    )
            elif isinstance(node, ast.Subscript):
                finding = self._check_environ_subscript(module, node)
                if finding is not None:
                    yield finding

    # -- helpers --------------------------------------------------------

    def _check_call(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[Finding]:
        chain = attr_chain(call.func)
        if chain is None:
            return None

        # random.X(...) on the global RNG.
        if (
            len(chain) == 2
            and chain[0] == "random"
            and chain[1] in GLOBAL_RNG_FUNCS
        ):
            return self.finding(
                module,
                call,
                f"global-RNG call random.{chain[1]}(); use a seeded"
                f" random.Random(seed) instance instead",
            )

        # Wall-clock reads (the obs package measures time for a living).
        if (
            len(chain) >= 2
            and (chain[-2], chain[-1]) in CLOCK_FUNCS
            and not module.in_package(*CLOCK_ALLOWED_PACKAGES)
        ):
            return self.finding(
                module,
                call,
                f"wall-clock read {'.'.join(chain)}(); simulator state"
                f" and results must not depend on real time",
            )

        # Bare dict.popitem() — removes an *arbitrary* item.  The keyword
        # form (OrderedDict.popitem(last=...)) is deterministic.
        if chain[-1] == "popitem" and not call.args and not call.keywords:
            return self.finding(
                module,
                call,
                "bare popitem() removes an arbitrary entry; use"
                " OrderedDict.popitem(last=...) or an explicit key",
            )

        # os.getenv / os.environ.get outside the RunConfig module.
        if not _env_read_allowed(module):
            if chain == ("os", "getenv") or (
                len(chain) >= 3
                and chain[-3:] == ("os", "environ", "get")
            ) or (
                len(chain) == 2 and chain[0] == "environ" and chain[1] == "get"
            ):
                return self.finding(
                    module,
                    call,
                    "environment read outside repro.eval.config; route"
                    " configuration through RunConfig or explicit"
                    " parameters",
                )
        return None

    def _check_environ_subscript(
        self, module: ModuleInfo, node: ast.Subscript
    ) -> Optional[Finding]:
        if _env_read_allowed(module):
            return None
        if not isinstance(node.ctx, ast.Load):
            return None
        chain = attr_chain(node.value)
        if chain is not None and chain[-1] == "environ":
            return self.finding(
                module,
                node,
                "environment read outside repro.eval.config; route"
                " configuration through RunConfig or explicit"
                " parameters",
            )
        return None
